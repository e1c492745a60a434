package main

// The fleet is the deployed topology in one process, assembled from the
// same public constructors the daemons call: a shard.Router in front of
// two mediator shards (ownership gate on, durable state), each fanning
// out through source.NewClient to three source.NewHandler nodes. Every
// hop is real loopback HTTP. Knobs are the daemons' flag defaults, with
// the exceptions WORKLOADS.md lists and the comments below explain.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/durable"
	"privateiye/internal/mediator"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/resilience"
	"privateiye/internal/shard"
	"privateiye/internal/source"
)

// linkageSalt is the daemons' default -salt.
const linkageSalt = "privateiye-default-linking-salt"

var (
	sourceNames = []string{"hospitalA", "hospitalB", "hospitalC"}
	shardNames  = []string{"shard-a", "shard-b"}
)

// fleetShape is what every source holds.
type fleetShape struct {
	// compliance: the full Figure 1 compliance matrix, configured as the
	// paper's Example 1 and internal/e2e run it: aggregates released
	// unmitigated, so Figure 1(a) reads as published.
	compliance bool
	// patients: this many generated patients (0 = none).
	patients int
}

func (s fleetShape) String() string {
	var parts []string
	if s.compliance {
		parts = append(parts, "Figure 1 matrix")
	}
	if s.patients > 0 {
		parts = append(parts, fmt.Sprintf("%d patients", s.patients))
	}
	return fmt.Sprintf("router -> %d shards -> %d sources (each: %s)",
		len(shardNames), len(sourceNames), strings.Join(parts, " + "))
}

// sourceSeed derives source i's data and perturbation seed from the
// workload seed.
func sourceSeed(seed uint64, i int) uint64 { return seed*16 + uint64(i) + 1 }

// figure1Rule is the compliance rule of the Example 1 sources.
var figure1Rule = policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9}

// Example 1's ledger settings (piye-mediator -max-disclosure 0.9
// -ledger-tolerance 0.05): the defaults, 0.99 and 0.5, grant the Figure 1
// combination. They apply to every workload; only aggregate releases
// reach the ledger.
const (
	maxDisclosure   = 0.9
	ledgerTolerance = 0.05
)

// defaultPolicy is piye-source's built-in research policy.
func defaultPolicy(owner string) (*policy.Policy, error) {
	return policy.NewPolicy(owner, policy.Deny,
		policy.Rule{Item: "//row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
		policy.Rule{Item: "//events//*", Purpose: "public-health", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	)
}

// newSource builds source i as piye-source does. reg may be nil (the
// uninstrumented reference fleet). It also returns the patients table,
// nil when the shape has none.
func newSource(i int, shape fleetShape, seed uint64, reg *obs.Registry) (*source.Local, *relational.Table, error) {
	name := sourceNames[i]
	cat := relational.NewCatalog()
	var patients *relational.Table
	if shape.patients > 0 {
		tab, err := clinical.NewGenerator(sourceSeed(seed, i)).Patients("patients", shape.patients, 4)
		if err != nil {
			return nil, nil, err
		}
		if err := cat.Add(tab); err != nil {
			return nil, nil, err
		}
		patients = tab
	}
	if shape.compliance {
		tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
		if err != nil {
			return nil, nil, err
		}
		if err := cat.Add(tab); err != nil {
			return nil, nil, err
		}
	}
	cfg := source.Config{Name: name, Catalog: cat, Seed: sourceSeed(seed, i), PlanCache: 256}
	var err error
	if shape.compliance {
		cfg.Policy, err = policy.NewPolicy(name, policy.Deny, figure1Rule)
		cfg.Registry = preserve.NewRegistry()
	} else {
		cfg.Policy, err = defaultPolicy(name)
	}
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		obs.RegisterProcessMetrics(reg)
		cfg.Obs, cfg.Trace = reg, obs.NewTracer(obs.DefaultTraceRing)
	}
	src, err := source.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	local, err := source.NewLocal(src, []byte(linkageSalt), psi.DefaultGroup())
	if err != nil {
		return nil, nil, err
	}
	return local, patients, nil
}

// node is one HTTP server on a loopback port.
type node struct {
	ln  net.Listener
	srv *http.Server
	url string
}

func listen() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &node{ln: ln, url: "http://" + ln.Addr().String()}, nil
}

// serve starts the server; it runs until close.
func (n *node) serve(h http.Handler) {
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = n.srv.Serve(n.ln) }()
}

func (n *node) close() {
	if n.srv != nil {
		_ = n.srv.Close()
		return
	}
	_ = n.ln.Close()
}

// fleet is one running topology.
type fleet struct {
	probe  *probe
	dir    string
	shards []*mediator.Mediator
	router *shard.Router

	srcRegs    []*obs.Registry
	shardRegs  []*obs.Registry
	routerURL  string
	nodes      []*node
	client     *http.Client // the load generator's
	clientDone func()
}

// newFleet builds and starts the topology over fresh state in dir. With
// traced set, source clients carry each op's id to the sources, so
// source-side spans join their op.
func newFleet(shape fleetShape, seed uint64, dir string, p *probe, traced bool) (f *fleet, err error) {
	f = &fleet{probe: p, dir: dir}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	listeners := func(n int) ([]*node, error) {
		var out []*node
		for i := 0; i < n; i++ {
			nd, err := listen()
			if err != nil {
				return nil, err
			}
			out = append(out, nd)
			f.nodes = append(f.nodes, nd)
		}
		return out, nil
	}
	srcNodes, err := listeners(len(sourceNames))
	if err != nil {
		return f, err
	}
	shardNodes, err := listeners(len(shardNames))
	if err != nil {
		return f, err
	}
	routerNodes, err := listeners(1)
	if err != nil {
		return f, err
	}

	for i := range sourceNames {
		reg := obs.NewRegistry()
		local, _, err := newSource(i, shape, seed, reg)
		if err != nil {
			return f, err
		}
		f.srcRegs = append(f.srcRegs, reg)
		srcNodes[i].serve(p.serve("source.serve", sourceNames[i], source.NewHandler(local)))
	}

	var peers []string
	peerURLs := map[string]string{}
	for i, name := range shardNames {
		peers = append(peers, name)
		peerURLs[name] = shardNodes[i].url
	}
	for i, id := range shardNames {
		var eps []source.Endpoint
		for j, name := range sourceNames {
			c := source.NewClient(srcNodes[j].url, name)
			if traced {
				c.HTTP = &http.Client{Timeout: c.HTTP.Timeout, Transport: opHeaderTransport{c.HTTP.Transport}}
			}
			eps = append(eps, &timedEndpoint{Endpoint: c, probe: p})
		}
		reg := obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
		stateDir := filepath.Join(dir, id)
		med, err := mediator.New(mediator.Config{
			Endpoints:       eps,
			LinkageSalt:     []byte(linkageSalt),
			MaxDisclosure:   maxDisclosure,
			LedgerTolerance: ledgerTolerance,
			PSISuite:        psi.SuiteNameP256,
			SourceTimeout:   10 * time.Second,
			Resilience: &resilience.EndpointConfig{
				Policy:  resilience.Policy{MaxAttempts: 3},
				Breaker: resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 5 * time.Second},
			},
			// -fsync never: the state lives inside the benchmark's own
			// directory, on whatever device holds it, and a shared disk's
			// flush latency swamps the program's cost (agg-fresh over five
			// seeds on ext4: 691-937 ops/s with -fsync always, 995-1045
			// with never). Appends and bytes are still written and counted.
			Durability: &mediator.DurabilityConfig{Dir: stateDir, Fsync: durable.FsyncNever},
			Replica:    &mediator.ReplicaConfig{},
			PlanCache:  256,
			Obs:        reg,
			Trace:      obs.NewTracer(obs.DefaultTraceRing),
			Shard: &mediator.ShardConfig{
				ID: id, Peers: peers, Seed: shard.DefaultSeed, PeerURLs: peerURLs,
			},
		})
		if err != nil {
			return f, fmt.Errorf("shard %s: %w", id, err)
		}
		if got := med.PSISuite(); got != psi.SuiteNameP256 {
			med.Close()
			return f, fmt.Errorf("shard %s negotiated PSI suite %q, want %q", id, got, psi.SuiteNameP256)
		}
		f.shards = append(f.shards, med)
		f.shardRegs = append(f.shardRegs, reg)
		shardNodes[i].serve(p.serve("mediator.serve", id, mediator.NewHandler(med)))
	}

	var backends []shard.Backend
	for i, name := range shardNames {
		backends = append(backends, shard.Backend{Name: name, URL: shardNodes[i].url})
	}
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:      backends,
		Seed:        shard.DefaultSeed,
		Retry:       resilience.Policy{MaxAttempts: 3, Timeout: 30 * time.Second},
		Breaker:     resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 5 * time.Second},
		HealthEvery: time.Second,
		Client:      &http.Client{Timeout: 30 * time.Second, Transport: attemptCounter{http.DefaultTransport, p}},
		Obs:         reg,
		Trace:       obs.NewTracer(obs.DefaultTraceRing),
	})
	if err != nil {
		return f, err
	}
	f.router = rt
	routerNodes[0].serve(p.serve("shard.serve", "router", rt.Handler()))
	f.routerURL = routerNodes[0].url

	tr := &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 90 * time.Second}
	f.client = &http.Client{Timeout: 60 * time.Second, Transport: tr}
	f.clientDone = tr.CloseIdleConnections
	return f, nil
}

// post sends one query through the router and reads the whole answer.
func (f *fleet) post(ctx context.Context, query, requester string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.routerURL+"/query", strings.NewReader(query))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Requester", requester)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// close stops every server and goroutine the fleet started and removes
// its state.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		n.close()
	}
	for _, m := range f.shards {
		_ = m.Close()
	}
	if f.clientDone != nil {
		f.clientDone()
	}
	_ = os.RemoveAll(f.dir)
}
