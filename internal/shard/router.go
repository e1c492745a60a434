package shard

// The router is the tier's front door: it terminates /query, hashes the
// requester onto the ring, and proxies to the owning shard through the
// same resilience stack the mediator uses against its sources — retry
// with backoff honoring Retry-After, a per-shard circuit breaker, and
// health-gated membership via each shard's /readyz. Refusal semantics
// survive the hop untouched: a 403 privacy refusal stays 403 with its
// body verbatim (the Figure 1 refusal message is part of the system's
// interface), and capacity sheds keep their 429/503 + Retry-After.
//
// The one piece of routing the router decides on its own is the drain
// re-route: a draining shard refuses requesters it holds no state for
// (a "draining: not accepting" 503), and the router re-routes those to
// the drain-adjusted owner, asserting the drained set in the
// X-Shard-Rerouted-From header. The landing shard VERIFIES the
// assertion rather than trusting it: it recomputes placement on its
// own ring AND confirms each claimed shard is draining against that
// shard's own /shard/status — see internal/mediator/shard.go and
// DESIGN.md §13.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"privateiye/internal/obs"
	"privateiye/internal/resilience"
)

// Backend names one shard and its base URL.
type Backend struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Shards is the tier membership; every entry joins the ring.
	Shards []Backend
	// Seed and Vnodes must match every shard's ShardConfig, or the
	// router's placement disagrees with the shards' ownership gates.
	Seed   uint64
	Vnodes int
	// Retry is the per-proxy retry policy (zero value: 3 attempts,
	// 50ms base backoff). Retries honor a shard's Retry-After.
	Retry resilience.Policy
	// Breaker configures the per-shard circuit breaker.
	Breaker resilience.BreakerConfig
	// DisableBreaker turns the per-shard breakers off.
	DisableBreaker bool
	// HealthEvery is the /readyz polling period per shard (0 = no
	// health gating; every shard is presumed ready).
	HealthEvery time.Duration
	// Client is the outbound HTTP client (nil = a default with a 30s
	// ceiling; per-call deadlines come from the inbound context).
	Client *http.Client
	// Obs and Trace instrument the router (piye_router_* metrics, one
	// trace per routed query). Both nil = no instrumentation.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// backendState is one shard's runtime state inside the router.
type backendState struct {
	Backend
	breaker *resilience.Breaker // nil when disabled

	mu      sync.Mutex
	healthy bool
	lastErr string
	// markedAt is when this router last changed the shard's drain mark
	// itself (admin endpoint or a learned draining-refusal). A status
	// probe that STARTED before that instant observed the pre-change
	// world and must not overwrite the newer local mark.
	markedAt time.Time
}

// setMark sets the shard's drain mark in the ring and stamps the
// change. It holds bs.mu across both, so syncDrainMark's
// check-then-apply never interleaves with it.
func (rt *Router) setMark(bs *backendState, draining bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	_ = rt.ring.SetDraining(bs.Name, draining)
	bs.markedAt = time.Now()
}

// Router proxies /query to the owning shard.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client
	byName map[string]*backendState

	stop chan struct{}
	wg   sync.WaitGroup

	// Metric handles; nil without a registry.
	proxied    *obs.Counter
	rerouted   *obs.Counter
	refused    *obs.Counter
	unavail    *obs.Counter
	lookupSec  *obs.Histogram
	proxySec   *obs.Histogram
	perShard   map[string]*obs.Counter
	healthGone *obs.Counter
}

// NewRouter builds the ring, starts the health pollers (one synchronous
// first probe per shard so the initial membership view is real), and
// returns a router ready to serve.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	rt := &Router{
		cfg:    cfg,
		ring:   New(cfg.Seed, cfg.Vnodes),
		client: cfg.Client,
		byName: map[string]*backendState{},
		stop:   make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{Timeout: 30 * time.Second}
	}
	for _, b := range cfg.Shards {
		if b.Name == "" || b.URL == "" {
			return nil, fmt.Errorf("shard: router shard needs name and url, got %+v", b)
		}
		if _, dup := rt.byName[b.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate shard name %q", b.Name)
		}
		if err := rt.ring.Add(b.Name); err != nil {
			return nil, err
		}
		bs := &backendState{Backend: b, healthy: true}
		bs.URL = strings.TrimRight(bs.URL, "/")
		if !cfg.DisableBreaker {
			bs.breaker = resilience.NewBreaker(cfg.Breaker)
		}
		rt.byName[b.Name] = bs
	}
	if reg := cfg.Obs; reg != nil {
		reg.Help("piye_router_requests_total", "Routed queries by outcome (proxied includes refusals passed through; rerouted = drain re-routes).")
		reg.Help("piye_router_shard_requests_total", "Queries forwarded per shard.")
		reg.Help("piye_router_lookup_seconds", "Ring lookup latency.")
		reg.Help("piye_router_proxy_seconds", "Full proxy latency per routed query (retries included).")
		reg.Help("piye_router_unhealthy_total", "Queries refused because the owning shard failed its readiness probe.")
		rt.proxied = reg.Counter("piye_router_requests_total", "outcome", "proxied")
		rt.rerouted = reg.Counter("piye_router_requests_total", "outcome", "rerouted")
		rt.refused = reg.Counter("piye_router_requests_total", "outcome", "error")
		rt.unavail = reg.Counter("piye_router_requests_total", "outcome", "unavailable")
		rt.lookupSec = reg.Histogram("piye_router_lookup_seconds", nil)
		rt.proxySec = reg.Histogram("piye_router_proxy_seconds", nil)
		rt.healthGone = reg.Counter("piye_router_unhealthy_total")
		rt.perShard = map[string]*obs.Counter{}
		for _, b := range cfg.Shards {
			rt.perShard[b.Name] = reg.Counter("piye_router_shard_requests_total", "shard", b.Name)
		}
	}
	if cfg.HealthEvery > 0 {
		for _, bs := range rt.byName {
			rt.probe(bs) // synchronous first probe: start with a real view
			rt.wg.Add(1)
			go rt.healthLoop(bs)
		}
	}
	return rt, nil
}

// Close stops the health pollers.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// healthLoop polls one shard's /readyz until Close.
func (rt *Router) healthLoop(bs *backendState) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probe(bs)
		}
	}
}

// probe runs one readiness check. A shard is ready when /readyz answers
// 200 within the poll period (bounded so a hung shard cannot stall the
// loop).
func (rt *Router) probe(bs *backendState) {
	timeout := rt.cfg.HealthEvery
	if timeout <= 0 {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, bs.URL+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	ok := false
	msg := ""
	if err != nil {
		msg = err.Error()
	} else {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
		if !ok {
			msg = strings.TrimSpace(string(body))
		}
	}
	bs.mu.Lock()
	bs.healthy = ok
	bs.lastErr = msg
	bs.mu.Unlock()
	rt.syncDrainMark(ctx, bs)
}

// syncDrainMark converges the router's drain view with the shard's own:
// the poller reads /shard/status and mirrors the draining flag into the
// ring. Marks learned from a shard's "draining: not accepting" refusal
// or set through another router's admin surface would otherwise never
// clear here — a shard-direct or peer-router undrain left this router
// asserting a stale drained set on every re-route. Fetch failures (and
// unsharded shards' 404s) leave the current mark untouched, and so does
// an observation that started before the router's own latest mark
// change — it saw the pre-admin world and must not revert it.
func (rt *Router) syncDrainMark(ctx context.Context, bs *backendState) {
	started := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, bs.URL+"/shard/status", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st struct {
		Draining bool `json:"draining"`
	}
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&st) != nil {
		io.Copy(io.Discard, resp.Body)
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.markedAt.After(started) {
		return
	}
	_ = rt.ring.SetDraining(bs.Name, st.Draining)
}

// isHealthy reports the last probe's verdict (always true without
// health polling).
func (bs *backendState) isHealthy() bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.healthy
}

// Ready is the router's own readiness: at least one shard is healthy.
func (rt *Router) Ready() error {
	for _, bs := range rt.byName {
		if bs.isHealthy() {
			return nil
		}
	}
	return fmt.Errorf("router: no healthy shard")
}

// proxyResult is one forwarded response, passed through verbatim.
type proxyResult struct {
	status      int
	body        []byte
	contentType string
	retryAfter  string
}

// proxyError classifies a forwarding failure for the resilience stack:
// 5xx and 429 are retryable, sheds (429/503) do not trip the breaker
// (a shard answering promptly is alive), and the drain/not-owner
// refusals are terminal for THIS shard — retrying the same door cannot
// help; the re-route loop in serveQuery handles them.
type proxyError struct {
	shard      string
	status     int
	result     proxyResult
	retryAfter time.Duration
}

func (e *proxyError) Error() string {
	return fmt.Sprintf("shard %s: %d %s: %s", e.shard, e.status, http.StatusText(e.status), strings.TrimSpace(string(e.result.body)))
}

// draining reports the drain refusal (wire contract with
// mediator.DrainingError).
func (e *proxyError) draining() bool {
	return e.status == http.StatusServiceUnavailable && bytes.Contains(e.result.body, []byte("draining: not accepting"))
}

// notOwner reports the ownership refusal (wire contract with
// mediator.NotOwnerError).
func (e *proxyError) notOwner() bool {
	return e.status == http.StatusServiceUnavailable && bytes.Contains(e.result.body, []byte("is not the owner of requester"))
}

// Retryable implements the resilience layer's classification. A 429 is
// the requester's own rate limit: the router retrying on the
// requester's behalf would defeat the throttle, so it passes straight
// back for the CLIENT to back off.
func (e *proxyError) Retryable() bool {
	if e.draining() || e.notOwner() {
		return false
	}
	return e.status >= 500
}

// Shed keeps throttling out of the breaker's failure count.
func (e *proxyError) Shed() bool {
	return e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable
}

// RetryAfterHint paces retries to the shard's own ask.
func (e *proxyError) RetryAfterHint() (time.Duration, bool) {
	if e.retryAfter > 0 {
		return e.retryAfter, true
	}
	return 0, false
}

// breakerVerdict maps an attempt error to what the circuit breaker
// should see. A 4xx is the shard answering authoritatively — a privacy
// refusal, a requester's own throttle — which is proof of health, not
// failure; were refusals counted, a requester probing their ledger
// limit could open the circuit and deny the whole shard. Only
// transport errors and 5xx count against the circuit (and deliberate
// 503 sheds are already ignored by Report itself).
func breakerVerdict(err error) error {
	var pe *proxyError
	if errors.As(err, &pe) && pe.status < 500 {
		return nil
	}
	return err
}

// forward proxies one query to one shard under the retry policy and its
// breaker. A non-2xx answer comes back as a *proxyError carrying the
// verbatim response, so the caller can pass it through or re-route.
func (rt *Router) forward(ctx context.Context, bs *backendState, body []byte, requester string, reroutedFrom []string, trace *obs.Trace) (proxyResult, error) {
	ts := time.Now()
	res, err := resilience.Do(ctx, rt.cfg.Retry, func(ctx context.Context) (proxyResult, error) {
		if bs.breaker != nil {
			if berr := bs.breaker.Allow(); berr != nil {
				return proxyResult{}, fmt.Errorf("shard %s: %w", bs.Name, berr)
			}
		}
		out, aerr := rt.attempt(ctx, bs, body, requester, reroutedFrom)
		if bs.breaker != nil {
			bs.breaker.Report(breakerVerdict(aerr))
		}
		return out, aerr
	})
	if rt.perShard != nil {
		rt.perShard[bs.Name].Inc()
	}
	trace.Record("proxy", bs.Name, ts, time.Since(ts), proxyOutcome(err))
	return res, err
}

// attempt is one HTTP exchange with a shard.
func (rt *Router) attempt(ctx context.Context, bs *backendState, body []byte, requester string, reroutedFrom []string) (proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, bs.URL+"/query", bytes.NewReader(body))
	if err != nil {
		return proxyResult{}, err
	}
	req.Header.Set("X-Requester", requester)
	req.Header.Set("Content-Type", "text/plain")
	if len(reroutedFrom) > 0 {
		req.Header.Set("X-Shard-Rerouted-From", strings.Join(reroutedFrom, ","))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return proxyResult{}, fmt.Errorf("shard %s: %w", bs.Name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return proxyResult{}, fmt.Errorf("shard %s: reading response: %w", bs.Name, err)
	}
	out := proxyResult{
		status:      resp.StatusCode,
		body:        b,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
	}
	if resp.StatusCode >= 400 {
		pe := &proxyError{shard: bs.Name, status: resp.StatusCode, result: out}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			var secs int
			if _, err := fmt.Sscanf(strings.TrimSpace(ra), "%d", &secs); err == nil && secs > 0 {
				pe.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return out, pe
	}
	return out, nil
}

// drainedNames lists ring members currently marked draining.
func (rt *Router) drainedNames() []string {
	var out []string
	for _, m := range rt.ring.Members() {
		if m.Draining {
			out = append(out, m.Name)
		}
	}
	return out
}

// serveQuery is the routing hot path: ring lookup, forward, and — when
// the owner is shedding ownership — the drain re-route.
func (rt *Router) serveQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	requester := r.Header.Get("X-Requester")
	if requester == "" {
		http.Error(w, "router: missing X-Requester header", http.StatusBadRequest)
		return
	}
	var trace *obs.Trace
	if rt.cfg.Trace != nil {
		trace = rt.cfg.Trace.Start(requester, string(body))
	}

	ts := time.Now()
	owner, err := rt.ring.Lookup(requester)
	if rt.lookupSec != nil {
		rt.lookupSec.Observe(time.Since(ts).Seconds())
	}
	trace.Record("lookup", owner, ts, time.Since(ts), proxyOutcome(err))
	if err != nil {
		rt.finish(trace, rt.refused, obs.OutcomeError)
		http.Error(w, "router: "+err.Error(), http.StatusServiceUnavailable)
		return
	}

	tsProxy := time.Now()
	defer func() {
		if rt.proxySec != nil {
			rt.proxySec.Observe(time.Since(tsProxy).Seconds())
		}
	}()

	bs := rt.byName[owner]
	if rt.cfg.HealthEvery > 0 && !bs.isHealthy() {
		if rt.healthGone != nil {
			rt.healthGone.Inc()
		}
		rt.finish(trace, rt.unavail, obs.OutcomeSkipped)
		http.Error(w, fmt.Sprintf("router: shard %s failed readiness; retry shortly", owner), http.StatusServiceUnavailable)
		return
	}

	res, err := rt.forward(r.Context(), bs, body, requester, nil, trace)
	outcome := rt.proxied

	// Drain re-route: the owner refused to take the requester on
	// (draining, no durable state there). Route to the drain-adjusted
	// owner, asserting the drained set so the landing shard can verify
	// the placement with its own ring. Bounded by the ring size — every
	// iteration adds one shard to the drained set.
	drained := rt.drainedNames()
	for hops := 0; hops < rt.ring.Len(); hops++ {
		pe, ok := err.(*proxyError)
		if !ok || !pe.draining() {
			break
		}
		// Learn the drain even when it was applied at the shard directly
		// rather than through our admin surface.
		rt.setMark(rt.byName[pe.shard], true)
		drained = appendMissing(drained, pe.shard)
		adj, lerr := rt.ring.LookupExcluding(requester, drained)
		if lerr != nil {
			rt.finish(trace, rt.unavail, obs.OutcomeSkipped)
			http.Error(w, "router: every shard is draining; retry shortly", http.StatusServiceUnavailable)
			return
		}
		outcome = rt.rerouted
		res, err = rt.forward(r.Context(), rt.byName[adj], body, requester, drained, trace)
	}

	if err != nil {
		pe, ok := err.(*proxyError)
		if !ok {
			// Transport-level failure (or open breaker): nothing to pass
			// through. 502 keeps it distinct from the shards' own 503s.
			rt.finish(trace, rt.refused, obs.OutcomeError)
			http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
			return
		}
		// A shard's refusal (including 403 privacy refusals and 429/503
		// sheds) passes through verbatim: the retry loop discards the
		// value on error, so recover it from the error itself.
		res = pe.result
	}
	rt.finish(trace, outcome, statusOutcome(res.status))
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// finish closes the trace and bumps the outcome counter (both nil-safe).
func (rt *Router) finish(trace *obs.Trace, c *obs.Counter, outcome string) {
	if c != nil {
		c.Inc()
	}
	trace.Finish(outcome)
}

// proxyOutcome renders a forward error as a span outcome.
func proxyOutcome(err error) string {
	if err == nil {
		return obs.OutcomeAnswered
	}
	if pe, ok := err.(*proxyError); ok {
		return obs.RefusedOutcome(fmt.Sprintf("%d", pe.status))
	}
	return obs.OutcomeError
}

// statusOutcome renders the final passthrough status as a trace outcome.
func statusOutcome(status int) string {
	if status < 400 {
		return obs.OutcomeAnswered
	}
	return obs.RefusedOutcome(fmt.Sprintf("%d", status))
}

// appendMissing appends s if absent.
func appendMissing(xs []string, s string) []string {
	for _, x := range xs {
		if x == s {
			return xs
		}
	}
	return append(xs, s)
}

// shardView is one shard in the admin listing.
type shardView struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Draining bool   `json:"draining"`
	Healthy  bool   `json:"healthy"`
	Breaker  string `json:"breaker,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
}

// Handler mounts the router's HTTP surface: POST /query (the proxy),
// GET /shards, POST /shards/drain and /shards/undrain (admin; both
// propagate to the shard's own /shard/drain|undrain, and undrain
// forwards ?force=1), plus the standard /healthz, /readyz, /metrics
// and /debug/trace.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", rt.serveQuery)

	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		var views []shardView
		for _, m := range rt.ring.Members() {
			bs := rt.byName[m.Name]
			bs.mu.Lock()
			v := shardView{
				Name: m.Name, URL: bs.Backend.URL,
				Draining: m.Draining, Healthy: bs.healthy, LastErr: bs.lastErr,
			}
			bs.mu.Unlock()
			if bs.breaker != nil {
				v.Breaker = bs.breaker.State()
			}
			views = append(views, v)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"seed":   rt.ring.Seed(),
			"shards": views,
		})
	})

	// Drain/undrain: mark the ring AND tell the shard, in that order for
	// drain (so no new requester races into the draining shard through
	// us) and the reverse for undrain. Undrain forwards ?force= to the
	// shard, which refuses (409) while re-routed requester state is
	// stranded on the drain-adjusted owners — the refusal passes back
	// verbatim with its status, and the ring mark stands.
	drainAdmin := func(drain bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			name := r.URL.Query().Get("name")
			bs, ok := rt.byName[name]
			if !ok {
				http.Error(w, fmt.Sprintf("router: unknown shard %q", name), http.StatusNotFound)
				return
			}
			path := "/shard/undrain"
			if drain {
				path = "/shard/drain"
				rt.setMark(bs, true)
			} else if force := r.URL.Query().Get("force"); force != "" {
				path += "?force=" + url.QueryEscape(force)
			}
			shardStatus := 0
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, bs.URL+path, nil)
			if err == nil {
				var resp *http.Response
				resp, err = rt.client.Do(req)
				if err == nil {
					b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
					resp.Body.Close()
					if resp.StatusCode >= 400 {
						shardStatus = resp.StatusCode
						err = fmt.Errorf("shard answered %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
					}
				}
			}
			if err != nil && drain {
				// The ring mark stands: routing around a shard we could not
				// reach is safe (fail-closed); report the propagation
				// failure so the operator can retry.
				http.Error(w, fmt.Sprintf("router: shard %s marked draining here, but propagating failed: %v", name, err), http.StatusBadGateway)
				return
			}
			if err != nil {
				// Mirror the shard's own refusal status when it gave one
				// (409 undrain refused); 502 only for transport failures.
				code := http.StatusBadGateway
				if shardStatus >= 400 {
					code = shardStatus
				}
				http.Error(w, fmt.Sprintf("router: undraining %s: %v", name, err), code)
				return
			}
			// Stamp the mark again now that the shard has applied the
			// change: a status poll that started after the first stamp
			// but read the shard before it drained may have cleared the
			// mark, and any poll still in flight read the same stale
			// state.
			rt.setMark(bs, drain)
			w.WriteHeader(http.StatusNoContent)
		}
	}
	mux.HandleFunc("POST /shards/drain", drainAdmin(true))
	mux.HandleFunc("POST /shards/undrain", drainAdmin(false))

	obs.AttachHealth(mux, rt.Ready)
	obs.Attach(mux, rt.cfg.Obs, rt.cfg.Trace)
	return mux
}
