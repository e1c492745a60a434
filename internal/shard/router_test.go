package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privateiye/internal/resilience"
)

// fakeShard is an httptest stand-in for one mediator shard: it records
// every /query it receives and answers via a swappable handler.
type fakeShard struct {
	name string
	srv  *httptest.Server

	mu       sync.Mutex
	reqs     []string // requester per received query
	headers  []string // X-Shard-Rerouted-From per received query
	draining bool     // what /shard/status reports
	handler  func(w http.ResponseWriter, r *http.Request)
}

func newFakeShard(t *testing.T, name string) *fakeShard {
	t.Helper()
	f := &fakeShard{name: name}
	f.handler = func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<integrated></integrated>"))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.reqs = append(f.reqs, r.Header.Get("X-Requester"))
		f.headers = append(f.headers, r.Header.Get("X-Shard-Rerouted-From"))
		h := f.handler
		f.mu.Unlock()
		h(w, r)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("GET /shard/status", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		draining := f.draining
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"draining":%v}`, f.name, draining)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) setHandler(h func(w http.ResponseWriter, r *http.Request)) {
	f.mu.Lock()
	f.handler = h
	f.mu.Unlock()
}

func (f *fakeShard) setDraining(v bool) {
	f.mu.Lock()
	f.draining = v
	f.mu.Unlock()
}

func (f *fakeShard) requesters() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.reqs...)
}

func (f *fakeShard) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.reqs)
}

func newTestRouter(t *testing.T, shards []*fakeShard, tweak func(*RouterConfig)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := RouterConfig{
		Seed:  DefaultSeed,
		Retry: resilience.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	}
	for _, f := range shards {
		cfg.Shards = append(cfg.Shards, Backend{Name: f.name, URL: f.srv.URL})
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return rt, srv
}

func routerQuery(t *testing.T, url, requester string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader("FOR //x RETURN //x"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Requester", requester)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestRouterStickiness: every requester lands on exactly one shard,
// repeatedly, and the shard is the one an independently built ring
// (same seed, same names) computes — the contract that lets the
// mediator's ownership gate verify the router's routing.
func TestRouterStickiness(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard-a"), newFakeShard(t, "shard-b"), newFakeShard(t, "shard-c")}
	_, srv := newTestRouter(t, shards, nil)

	ref := New(DefaultSeed, 0)
	byName := map[string]*fakeShard{}
	for _, f := range shards {
		if err := ref.Add(f.name); err != nil {
			t.Fatal(err)
		}
		byName[f.name] = f
	}
	for i := 0; i < 30; i++ {
		requester := fmt.Sprintf("requester-%02d", i)
		want, err := ref.Lookup(requester)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			if status, body := routerQuery(t, srv.URL, requester); status != http.StatusOK {
				t.Fatalf("query %s: %d %s", requester, status, body)
			}
		}
		// All three repeats must be on the reference owner and nowhere else.
		for name, f := range byName {
			for _, got := range f.requesters() {
				if got == requester && name != want {
					t.Fatalf("requester %s landed on %s, ring owner is %s", requester, name, want)
				}
			}
		}
	}
	used := 0
	for _, f := range shards {
		if f.count() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("30 requesters used %d of 3 shards; routing is not spreading", used)
	}
}

// TestRouterPassthrough: refusal semantics survive the hop — a 403
// privacy refusal keeps its status and body, a shed keeps its 429 and
// Retry-After. The router must never rewrite a refusal into a success
// or a 403 into a retryable 503.
func TestRouterPassthrough(t *testing.T) {
	f := newFakeShard(t, "only")
	_, srv := newTestRouter(t, []*fakeShard{f}, nil)

	refusal := "mediator: refusing release: combined with your earlier rate-by-test statistics it would pin hidden rate values"
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, refusal, http.StatusForbidden)
	})
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusForbidden {
		t.Fatalf("privacy refusal arrived as %d, want 403", status)
	}
	if !strings.Contains(body, "combined with your earlier") {
		t.Fatalf("refusal body rewritten: %q", body)
	}
	if got := f.count(); got != 1 {
		t.Fatalf("403 was retried: shard saw %d requests", got)
	}

	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "mediator: rate limit exceeded for requester drWho", http.StatusTooManyRequests)
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", strings.NewReader("FOR //x RETURN //x"))
	req.Header.Set("X-Requester", "drWho")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed arrived as %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After header lost across the hop")
	}
}

// TestRouterRetriesTransientFailures: a shard that fails once with a
// 500 and then recovers is retried within the same routed query.
func TestRouterRetriesTransientFailures(t *testing.T) {
	f := newFakeShard(t, "only")
	var mu sync.Mutex
	failures := 1
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("<integrated></integrated>"))
	})
	_, srv := newTestRouter(t, []*fakeShard{f}, nil)
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusOK {
		t.Fatalf("retry did not recover: %d %s", status, body)
	}
	if got := f.count(); got != 2 {
		t.Fatalf("shard saw %d attempts, want 2 (one failure + one retry)", got)
	}
}

// TestRouterDrainReroute: the owner answers the draining refusal, the
// router re-routes to the drain-adjusted owner with the drained set
// asserted in X-Shard-Rerouted-From, and the landing shard's answer
// passes through. The refusal is never surfaced to the client.
func TestRouterDrainReroute(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard-a"), newFakeShard(t, "shard-b"), newFakeShard(t, "shard-c")}
	_, srv := newTestRouter(t, []*fakeShard{shards[0], shards[1], shards[2]}, nil)

	ref := New(DefaultSeed, 0)
	byName := map[string]*fakeShard{}
	for _, f := range shards {
		if err := ref.Add(f.name); err != nil {
			t.Fatal(err)
		}
		byName[f.name] = f
	}
	// Find a requester owned by shard-a.
	requester := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("requester-%03d", i)
		if o, _ := ref.Lookup(cand); o == "shard-a" {
			requester = cand
			break
		}
	}
	if requester == "" {
		t.Fatal("no requester owned by shard-a in 1000 candidates")
	}
	adj, err := ref.LookupExcluding(requester, []string{"shard-a"})
	if err != nil {
		t.Fatal(err)
	}

	byName["shard-a"].setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "mediator: shard shard-a draining: not accepting new requesters", http.StatusServiceUnavailable)
	})
	status, body := routerQuery(t, srv.URL, requester)
	if status != http.StatusOK {
		t.Fatalf("drain re-route failed: %d %s", status, body)
	}
	landed := byName[adj]
	if landed.count() != 1 {
		t.Fatalf("drain-adjusted owner %s saw %d queries, want 1", adj, landed.count())
	}
	landed.mu.Lock()
	hdr := landed.headers[0]
	landed.mu.Unlock()
	if !strings.Contains(hdr, "shard-a") {
		t.Fatalf("re-route did not assert the drained set: X-Shard-Rerouted-From=%q", hdr)
	}
	// The router learned the drain: the next new requester owned by
	// shard-a skips the refused hop... but stateful requesters must
	// still be able to reach shard-a through a direct Lookup, so the
	// ring keeps the member (drain must not rewrite ownership).
	if o, _ := ref.Lookup(requester); o != "shard-a" {
		t.Fatal("full-ring ownership moved on drain")
	}
}

// TestRouterDrainMarksConverge: the health poller mirrors each shard's
// own /shard/status draining flag into the router's ring, so drain
// marks learned from refusal sniffing (or set by another router's
// admin surface) converge with the shards' actual state instead of
// sticking forever.
func TestRouterDrainMarksConverge(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard-a"), newFakeShard(t, "shard-b")}
	rt, _ := newTestRouter(t, shards, func(cfg *RouterConfig) {
		cfg.HealthEvery = 20 * time.Millisecond
	})

	drainMark := func(name string) bool {
		for _, m := range rt.ring.Members() {
			if m.Name == name {
				return m.Draining
			}
		}
		t.Fatalf("member %s missing from ring", name)
		return false
	}
	waitFor := func(name string, want bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for drainMark(name) != want {
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A drain applied at the shard directly (not through this router's
	// admin surface) is learned by the poller, traffic or no traffic.
	shards[0].setDraining(true)
	waitFor("shard-a", true, "router never learned shard-a's shard-direct drain")

	// And a shard-direct undrain clears the mark. Before the fix a
	// learned mark could only be cleared through this router instance's
	// own /shards/undrain, so a multi-router deployment kept asserting
	// a stale drained set in X-Shard-Rerouted-From forever.
	shards[0].setDraining(false)
	waitFor("shard-a", false, "router kept a stale drain mark after the shard undrained")
}

// TestRouterDrainMarkSurvivesStaleStatus: a status poll that starts
// after the router marks a shard draining, but reads the shard before
// the shard has applied the drain, sees draining=false. Once the drain
// completes the router's mark must stand, or new requesters route into
// the draining shard until the next poll.
func TestRouterDrainMarkSurvivesStaleStatus(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "shard-a"), newFakeShard(t, "shard-b")}
	rt, srv := newTestRouter(t, shards, nil) // no poller: the test is the poll
	arrived, release := make(chan struct{}), make(chan struct{})
	shards[0].srv.Config.Handler.(*http.ServeMux).HandleFunc("POST /shard/drain", func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-release
		shards[0].setDraining(true)
		w.WriteHeader(http.StatusNoContent)
	})

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/shards/drain?name=shard-a", "", nil)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-arrived // the router has marked shard-a; the shard has not drained
	rt.syncDrainMark(context.Background(), rt.byName["shard-a"])
	close(release)
	if code := <-status; code != http.StatusNoContent {
		t.Fatalf("drain via router: status %d", code)
	}
	for _, m := range rt.ring.Members() {
		if m.Name == "shard-a" && !m.Draining {
			t.Fatal("router lost its drain mark to a status read taken before the shard drained")
		}
	}
}

// TestRouterHealthGate: a shard failing /readyz is refused fast with a
// 503, without burning the retry budget against a dead socket.
func TestRouterHealthGate(t *testing.T) {
	f := newFakeShard(t, "only")
	f.srv.Config.Handler.(*http.ServeMux).HandleFunc("GET /readyz2", func(w http.ResponseWriter, r *http.Request) {})
	dead := newFakeShard(t, "dead")
	deadMux := http.NewServeMux()
	deadMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replaying wal", http.StatusServiceUnavailable)
	})
	dead.srv.Config.Handler = deadMux

	_, srv := newTestRouter(t, []*fakeShard{f, dead}, func(cfg *RouterConfig) {
		cfg.HealthEvery = 50 * time.Millisecond
	})
	ref := New(DefaultSeed, 0)
	ref.Add("only")
	ref.Add("dead")
	deadReq, okReq := "", ""
	for i := 0; i < 1000 && (deadReq == "" || okReq == ""); i++ {
		cand := fmt.Sprintf("requester-%03d", i)
		if o, _ := ref.Lookup(cand); o == "dead" {
			deadReq = cand
		} else {
			okReq = cand
		}
	}
	status, body := routerQuery(t, srv.URL, deadReq)
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "readiness") {
		t.Fatalf("unhealthy shard: got %d %q, want fast 503", status, body)
	}
	if status, _ := routerQuery(t, srv.URL, okReq); status != http.StatusOK {
		t.Fatalf("healthy shard refused: %d", status)
	}
	if dead.count() != 0 {
		t.Fatalf("router forwarded %d queries to a shard that failed readiness", dead.count())
	}
}

// TestRouterBreaker: a shard that is gone (connection refused) trips
// its breaker after the threshold, and subsequent queries fail fast
// with the circuit-open error instead of re-dialing a dead socket.
func TestRouterBreaker(t *testing.T) {
	f := newFakeShard(t, "only")
	f.srv.Close() // connection refused from the first query on

	rt, srv := newTestRouter(t, []*fakeShard{f}, func(cfg *RouterConfig) {
		cfg.Retry = resilience.Policy{MaxAttempts: 1}
		cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 3, OpenFor: time.Hour}
	})
	for i := 0; i < 3; i++ {
		if status, _ := routerQuery(t, srv.URL, "drWho"); status != http.StatusBadGateway {
			t.Fatalf("dead shard answered %d, want 502", status)
		}
	}
	status, body := routerQuery(t, srv.URL, "drWho")
	if status != http.StatusBadGateway || !strings.Contains(body, "circuit open") {
		t.Fatalf("after threshold: %d %q, want circuit-open 502", status, body)
	}
	if st := rt.byName["only"].breaker.State(); st != "open" {
		t.Fatalf("breaker state %q, want open", st)
	}
}

// TestRouterBreakerIgnoresRefusals pins that a shard answering 4xx —
// a privacy refusal, a requester's own throttle — is proof of health:
// a requester hammering their ledger limit must not be able to open
// the circuit and deny the shard to everyone else.
func TestRouterBreakerIgnoresRefusals(t *testing.T) {
	f := newFakeShard(t, "only")
	f.setHandler(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "release refused: would exceed the disclosure budget when combined", http.StatusForbidden)
	})
	rt, srv := newTestRouter(t, []*fakeShard{f}, func(cfg *RouterConfig) {
		cfg.Retry = resilience.Policy{MaxAttempts: 1}
		cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 2, OpenFor: time.Hour}
	})
	for i := 0; i < 5; i++ {
		if status, _ := routerQuery(t, srv.URL, "snooper"); status != http.StatusForbidden {
			t.Fatalf("refusal %d answered %d, want 403 passthrough", i, status)
		}
	}
	if st := rt.byName["only"].breaker.State(); st != "closed" {
		t.Fatalf("breaker state %q after five refusals, want closed", st)
	}
}
