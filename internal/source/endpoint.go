package source

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"

	"privateiye/internal/obs"
	"privateiye/internal/psi"
	"privateiye/internal/schemamatch"
	"privateiye/internal/xmltree"
)

// psiBatchBuckets are the batch-size histogram bounds for whole-column
// PSI calls (items per call, powers of two).
var psiBatchBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Endpoint is the mediator's view of a remote source: everything the
// mediation engine of Figure 2(b) needs, whether the source runs
// in-process or behind HTTP. All payloads are XML nodes, so the two
// transports are byte-identical in behaviour.
//
// Every call takes a context: sources are autonomous and therefore
// slow, flaky or dead in practice, and the mediator bounds each call
// with a per-source deadline. Implementations must return promptly once
// the context is done (internal/resilience additionally abandons
// implementations that do not).
type Endpoint interface {
	// Name identifies the source.
	Name() string
	// FetchSummary returns the redacted structural summary (partial
	// schema).
	FetchSummary(ctx context.Context) (*xmltree.Summary, error)
	// FetchProfiles returns shareable field profiles for schema matching.
	FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error)
	// Query executes a PIQL fragment and returns the tagged XML answer.
	Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error)
	// PSISuites lists the PSI group suites this source supports, in
	// preference order. The mediator intersects these across the fleet
	// during schema refresh and fails closed to MODP when a peer
	// predates suite negotiation.
	PSISuites(ctx context.Context) ([]string, error)
	// PSIBlinded returns the source's blinded linkage items for a
	// field, in the named suite ("" = the source's preferred suite).
	PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error)
	// PSIExponentiate raises peer-blinded elements to this source's
	// secret, preserving order.
	PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error)
}

// Local wraps a Source as an in-process Endpoint. The PSI group must be
// shared by every source participating in integration. LinkageSalt is
// the fleet's linking secret; NewLocal refuses an empty one, but no
// source call reads it (private dedup runs at the mediator).
type Local struct {
	Src         *Source
	LinkageSalt []byte
	Group       *psi.Group

	// AdvertisedSuites lists the PSI suites this source offers, in
	// preference order; nil means the default advertisement — the fast
	// EC suite first, then the Group's MODP suite as the interop floor.
	// A legacy MODP-only deployment pins this to just its MODP name.
	AdvertisedSuites []string

	// Coalesce merges concurrent identical PSIBlinded calls — same
	// field, same suite — into one shared computation. Unlike query
	// coalescing at the mediator, nothing here is per-requester (the
	// call does not even carry one), so sharing the result is
	// unconditionally safe; the knob exists because the win only
	// materializes when several integration rounds race.
	Coalesce bool

	mu      sync.Mutex
	parties map[string]*psi.Party // one per suite, lazily keyed by suite name
	mBatch  *obs.Histogram        // items per whole-column PSI call; nil-safe

	colMu  sync.Mutex
	colFly map[string]*colFlight
}

// colFlight is one in-progress shared column computation.
type colFlight struct {
	done chan struct{}
	val  *xmltree.Node
	err  error
}

// sharedColumn runs compute once per concurrent burst of identical
// column requests: the first caller computes, the rest wait and share.
func (l *Local) sharedColumn(ctx context.Context, key string, compute func() (*xmltree.Node, error)) (*xmltree.Node, error) {
	if !l.Coalesce {
		return compute()
	}
	l.colMu.Lock()
	if l.colFly == nil {
		l.colFly = map[string]*colFlight{}
	}
	if f, ok := l.colFly[key]; ok {
		l.colMu.Unlock()
		l.colObs(false)
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &colFlight{done: make(chan struct{})}
	l.colFly[key] = f
	l.colMu.Unlock()
	l.colObs(true)
	f.val, f.err = compute()
	l.colMu.Lock()
	delete(l.colFly, key)
	l.colMu.Unlock()
	close(f.done)
	return f.val, f.err
}

// colObs counts one coalesced-column participant by role.
func (l *Local) colObs(leader bool) {
	reg := l.Src.cfg.Obs
	if reg == nil {
		return
	}
	role := "follower"
	if leader {
		role = "leader"
	}
	reg.Help("piye_source_coalesce_total", "Coalesced whole-column linkage computations: leaders computed, followers shared one in flight.")
	reg.Counter("piye_source_coalesce_total", "source", l.Src.Name(), "role", role).Inc()
}

// NewLocal builds a local endpoint.
func NewLocal(src *Source, linkageSalt []byte, group *psi.Group) (*Local, error) {
	if src == nil {
		return nil, fmt.Errorf("source: nil source")
	}
	if len(linkageSalt) == 0 {
		return nil, fmt.Errorf("source: empty linkage salt")
	}
	if group == nil {
		group = psi.DefaultGroup()
	}
	return &Local{Src: src, LinkageSalt: linkageSalt, Group: group}, nil
}

// Name implements Endpoint.
func (l *Local) Name() string { return l.Src.Name() }

// FetchSummary implements Endpoint.
func (l *Local) FetchSummary(ctx context.Context) (*xmltree.Summary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Src.Summary(), nil
}

// FetchProfiles implements Endpoint.
func (l *Local) FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Src.Profiles(), nil
}

// Query implements Endpoint.
func (l *Local) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := l.Src.ParseCached(piqlText)
	if err != nil {
		return nil, fmt.Errorf("source: bad query: %w", err)
	}
	ans, err := l.Src.ExecuteContext(ctx, q, requester)
	if err != nil {
		return nil, err
	}
	return ans.Node, nil
}

// modpSuiteName is the wire name of the Group's safe-prime suite.
func (l *Local) modpSuiteName() string { return psi.ModPSuite(l.Group).Name() }

// advertised returns the suites this source offers, in preference
// order. Every resolvable name in AdvertisedSuites is honoured; by
// default the source leads with the EC suite and keeps its MODP group
// as the floor every peer can fall back to.
func (l *Local) advertised() []string {
	if len(l.AdvertisedSuites) > 0 {
		return l.AdvertisedSuites
	}
	return []string{psi.SuiteNameP256, l.modpSuiteName()}
}

// PSISuites implements Endpoint.
func (l *Local) PSISuites(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return append([]string(nil), l.advertised()...), nil
}

// suiteFor resolves a requested suite name against the advertisement:
// "" means the source's preferred (first advertised) suite, and a name
// the source does not advertise is refused — a source never serves a
// group its operator did not opt into.
func (l *Local) suiteFor(name string) (psi.Suite, error) {
	adv := l.advertised()
	if name == "" {
		name = adv[0]
	}
	ok := false
	for _, a := range adv {
		if a == name {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("source %s: psi suite %q not advertised (have %v)", l.Src.Name(), name, adv)
	}
	if name == l.modpSuiteName() {
		return psi.ModPSuite(l.Group), nil
	}
	return psi.SuiteByName(name)
}

func (l *Local) psiParty(suite psi.Suite) (*psi.Party, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.parties[suite.Name()]; ok {
		return p, nil
	}
	p, err := psi.NewParty(suite, rand.Reader)
	if err != nil {
		return nil, err
	}
	p.SetWorkers(l.Src.cfg.Workers)
	if l.parties == nil {
		l.parties = map[string]*psi.Party{}
	}
	l.parties[suite.Name()] = p
	if reg := l.Src.cfg.Obs; reg != nil {
		// Sampled at scrape time from the party's atomic counters.
		// The party lives as long as the endpoint, so the closures
		// never outlive their subject.
		name, sName, party := l.Src.Name(), suite.Name(), p
		reg.Help("piye_psi_blind_items_total", "Items blinded in PSI rounds (cache hits included).")
		reg.CounterFunc("piye_psi_blind_items_total", func() float64 {
			b, _, _ := party.Stats()
			return float64(b)
		}, "source", name, "suite", sName)
		reg.CounterFunc("piye_psi_blind_cache_hits_total", func() float64 {
			_, h, _ := party.Stats()
			return float64(h)
		}, "source", name, "suite", sName)
		reg.CounterFunc("piye_psi_exponentiate_items_total", func() float64 {
			_, _, e := party.Stats()
			return float64(e)
		}, "source", name, "suite", sName)
		if l.mBatch == nil {
			reg.Help("piye_psi_batch_items", "Items per whole-column PSI call.")
			l.mBatch = reg.Histogram("piye_psi_batch_items", psiBatchBuckets, "source", name)
		}
	}
	return p, nil
}

// PSIBlinded implements Endpoint.
func (l *Local) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := l.suiteFor(suite)
	if err != nil {
		return nil, err
	}
	return l.sharedColumn(ctx, s.Name()+"\x00"+field, func() (*xmltree.Node, error) {
		p, err := l.psiParty(s)
		if err != nil {
			return nil, err
		}
		vals := l.Src.fieldValues(field, 1<<20)
		l.mBatch.Observe(float64(len(vals)))
		return psi.MarshalElems(s, p.Blind(vals)), nil
	})
}

// PSIExponentiate implements Endpoint. The suite is read off the
// envelope; envelopes from peers predating negotiation carry no suite
// attribute and are decoded against this source's MODP group.
func (l *Local) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name := psi.WireSuiteName(elems)
	if name == "" {
		name = l.modpSuiteName() // legacy peer: fail closed to MODP
	}
	s, err := l.suiteFor(name)
	if err != nil {
		return nil, err
	}
	p, err := l.psiParty(s)
	if err != nil {
		return nil, err
	}
	in, err := psi.UnmarshalElems(elems, s)
	if err != nil {
		return nil, err
	}
	l.mBatch.Observe(float64(len(in)))
	out, err := p.Exponentiate(in)
	if err != nil {
		return nil, err
	}
	return psi.MarshalElems(s, out), nil
}
