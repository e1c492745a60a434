// Package mediator implements the privacy-preserving mediation engine of
// Figure 2(b): mediated schema generation over the sources' partial
// structural summaries, query fragmentation and source routing, result
// integration with private duplicate elimination, the privacy control that
// verifies aggregated privacy loss, and the hybrid warehouse.
package mediator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"privateiye/internal/admission"
	"privateiye/internal/linkage"
	"privateiye/internal/obs"
	"privateiye/internal/parallel"
	"privateiye/internal/piql"
	"privateiye/internal/psi"
	"privateiye/internal/qcache"
	"privateiye/internal/refusal"
	"privateiye/internal/replica"
	"privateiye/internal/resilience"
	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
	"privateiye/internal/warehouse"
	"privateiye/internal/xmltree"
)

// Config assembles a mediation engine.
type Config struct {
	// Endpoints are the participating sources.
	Endpoints []source.Endpoint
	// LinkageSalt is the shared linking secret for private dedup; it must
	// equal the sources'.
	LinkageSalt []byte
	// DedupColumn names the result column used for duplicate elimination
	// across sources ("" disables fuzzy dedup; exact-duplicate rows are
	// always removed).
	DedupColumn string
	// DedupThreshold is the Dice similarity above which two rows are the
	// same entity (default 0.85).
	DedupThreshold float64
	// WarehouseCapacity and WarehouseTTL configure the hybrid warehouse;
	// capacity 0 disables warehousing (pure virtual querying).
	WarehouseCapacity int
	WarehouseTTL      int64
	// MaxDisclosure is the Privacy Control threshold: an aggregate
	// release whose simulated snooping attack narrows any hidden cell by
	// more than this fraction is refused (see control.go and ledger.go).
	// Default 0.99 (only near-exact disclosure blocked); Example 1 uses
	// stricter settings.
	MaxDisclosure float64
	// LedgerTolerance is the accuracy the release ledger assumes of
	// published aggregate values when combining a requester's releases
	// (default 0.5: the default mitigations round aggregates to
	// integers).
	LedgerTolerance float64
	// SourceTimeout bounds each individual source call during fan-out
	// and schema refresh (0 = no per-source deadline). A source that
	// misses the deadline is recorded in Denied with a timeout reason;
	// the integrator returns whatever answered in time.
	SourceTimeout time.Duration
	// PSISuite is the preferred PSI group suite (default "p256", the
	// fast elliptic-curve kernel). During every schema refresh the
	// mediator collects each source's supported suites and negotiates:
	// the preferred suite is used iff every answering source advertises
	// it; otherwise the first universally supported suite in the first
	// source's preference order; otherwise the fleet fails closed to
	// "modp2048" — the safe-prime group every deployment predating
	// negotiation runs — rather than letting sources diverge into
	// incomparable groups. PSISuite() reports the outcome.
	PSISuite string
	// Resilience, when non-nil, wraps every endpoint in a
	// resilience.Endpoint: policy-driven retry with backoff plus a
	// per-source circuit breaker that skips known-dead sources instead
	// of re-dialing them on every query.
	Resilience *resilience.EndpointConfig
	// Durability, when non-nil, persists the release ledger and query
	// history to disk and replays them on startup, defeating the
	// restart-amnesia attack on the combination controls (see persist.go).
	Durability *DurabilityConfig
	// Replica, when non-nil, replicates the durable log to/from a peer
	// mediator and arbitrates failover with a persisted fencing epoch
	// (see replicate.go). Requires Durability.
	Replica *ReplicaConfig
	// Workers bounds the mediator's own compute fan-out (Bloom encoding
	// during dedup, the ledger's simulated inference attack): 0 =
	// GOMAXPROCS, 1 = serial.
	Workers int
	// PlanCache is the capacity (entries) of the PIQL parse cache:
	// repeated query texts skip parsing and canonicalization. Privacy
	// controls are NOT cached — routing, per-source policy enforcement,
	// loss aggregation and the release ledger run on every query, cache
	// hit or not. 0 disables caching. Invalidated by RefreshSchema.
	PlanCache int
	// Coalesce merges concurrent identical queries from the same
	// requester into one shared pipeline execution (singleflight):
	// followers wait for the leader's parse/route/fan-out/integrate and
	// share its result, while the controls that consume per-requester
	// state — loss control, the release ledger, history recording — run
	// once per caller, so no query escapes the ledger by arriving while
	// its twin is in flight. Queries from different requesters never
	// share an execution. Invalidated by RefreshSchema like the plan
	// cache.
	Coalesce bool
	// Obs, when non-nil, receives the mediator's metrics (query and
	// refusal counters, per-stage and per-source latencies, cache and
	// warehouse counters, breaker state, WAL counters) under the
	// piye_mediator_* / piye_breaker_* / piye_wal_* families. Trace,
	// when non-nil, records one trace per mediated query with a span
	// per pipeline stage and per source call. Both nil = zero
	// instrumentation cost beyond one nil check per stage.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Admission, when non-nil and enabled, gates QueryContext with an
	// admission controller: per-requester rate limiting, adaptive
	// (AIMD) concurrency limiting with a hard ceiling, and a deadline-
	// aware bounded queue that sheds requests whose estimated wait
	// exceeds the caller's remaining deadline. Sheds surface as
	// *admission.ShedError (HTTP 429/503 with Retry-After), classified
	// as refusal.Overloaded / refusal.RateLimited — never as privacy
	// refusals.
	Admission *admission.Config
	// Shard, when non-nil, places this mediator in a sharded tier: an
	// ownership gate refuses requesters whose ring placement is another
	// shard (fail-closed NotOwnerError, HTTP 503) and the drain/re-route
	// handshake with the piye-router tier is enabled (see shard.go).
	Shard *ShardConfig
	// Brownout degrades overload sheds gracefully: instead of failing
	// an Overloaded shed, the mediator answers from the warehouse even
	// past TTL, marking the response Stale. Rate-limit sheds are never
	// browned out (the point of the token bucket is to make the greedy
	// requester slow down). Requires a warehouse to have any effect.
	Brownout bool
}

// Mediator is a running mediation engine.
type Mediator struct {
	cfg     Config
	matcher *schemamatch.Matcher
	plans   *qcache.Cache         // parse cache; nil when disabled
	obs     *medObs               // metric handles; nil when uninstrumented
	admit   *admission.Controller // nil = admit everything

	// flights are the in-progress shared executions coalesced queries
	// join, keyed by requester + normalized text. Guarded by flightMu
	// (never held across the pipeline — only around map bookkeeping).
	flightMu sync.Mutex
	flights  map[string]*flight

	mu              sync.RWMutex
	schema          *xmltree.Summary            // mediated schema (merged partial summaries)
	bySource        map[string]*xmltree.Summary // per-source shared summaries
	vocab           []string                    // leaf vocabulary of the mediated schema
	psiSuite        string                      // negotiated PSI suite (see RefreshSchemaContext)
	wh              *warehouse.Warehouse
	history         []HistoryEntry
	historyReq      map[string]struct{} // requesters appearing in history (O(1) state checks)
	ledger          *releaseLedger
	correspondences []Correspondence

	// persist is set once in New when Config.Durability is given; nil
	// means process-local state (see persist.go).
	persist *statePersister

	// shard is the tier-membership view; nil means unsharded (see
	// shard.go).
	shard *shardState

	// Replication wiring; all nil without Config.Replica (see
	// replicate.go). node holds role + fencing epoch; repSrv serves the
	// log to standbys; repClient tails the primary on a standby;
	// repCancel stops the client at promotion or Close; fenceCancel
	// (guarded by mu) stops the post-promotion fencer loop.
	node        *replica.Node
	repSrv      *replica.Server
	repClient   *replica.Client
	repCancel   context.CancelFunc
	fenceCancel context.CancelFunc
	fenceAcks   *obs.Counter
}

// HistoryEntry is one integration round in the Query History store.
type HistoryEntry struct {
	Requester string
	Query     string
	Sources   []string
	Denied    []string
	Clock     int64
}

// New builds a mediator and performs the initial mediated schema
// generation.
func New(cfg Config) (*Mediator, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("mediator: no sources")
	}
	if cfg.DedupThreshold == 0 {
		cfg.DedupThreshold = 0.85
	}
	if cfg.DedupThreshold < 0 || cfg.DedupThreshold > 1 {
		return nil, fmt.Errorf("mediator: dedup threshold %v", cfg.DedupThreshold)
	}
	if cfg.MaxDisclosure == 0 {
		cfg.MaxDisclosure = 0.99
	}
	if cfg.LedgerTolerance == 0 {
		cfg.LedgerTolerance = 0.5
	}
	if cfg.PSISuite == "" {
		cfg.PSISuite = psi.DefaultSuiteName
	}
	if !psi.MeetsFloor(cfg.PSISuite) {
		return nil, fmt.Errorf("mediator: psi suite %q: want p256 or modp2048 (the strength floor)", cfg.PSISuite)
	}
	if cfg.Resilience != nil {
		// Wrap a copy: each endpoint gets its own circuit breaker, and
		// the caller's slice stays untouched.
		wrapped := make([]source.Endpoint, len(cfg.Endpoints))
		for i, ep := range cfg.Endpoints {
			rcfg := *cfg.Resilience
			if cfg.Obs != nil && !rcfg.DisableBreaker {
				// Per-source breaker observability: a transition counter
				// and a state gauge (0 closed, 1 half-open, 2 open),
				// updated from the breaker's state-change hook. Any hook
				// the caller installed still runs.
				reg, name, prev := cfg.Obs, ep.Name(), rcfg.Breaker.OnStateChange
				reg.Help("piye_breaker_state", "Circuit state per source: 0 closed, 1 half-open, 2 open.")
				reg.Help("piye_breaker_transitions_total", "Circuit state transitions per source.")
				gauge := reg.Gauge("piye_breaker_state", "source", name)
				gauge.Set(0)
				rcfg.Breaker.OnStateChange = func(from, to string) {
					if prev != nil {
						prev(from, to)
					}
					reg.Counter("piye_breaker_transitions_total", "source", name, "to", to).Inc()
					gauge.Set(breakerStateValue(to))
				}
			}
			wrapped[i] = resilience.WrapEndpoint(ep, rcfg)
		}
		cfg.Endpoints = wrapped
	}
	m := &Mediator{
		cfg:        cfg,
		matcher:    schemamatch.NewMatcher(),
		plans:      qcache.New(cfg.PlanCache),
		flights:    map[string]*flight{},
		bySource:   map[string]*xmltree.Summary{},
		historyReq: map[string]struct{}{},
		ledger:     newReleaseLedger(),
	}
	m.ledger.attackWorkers = cfg.Workers
	names := make([]string, len(cfg.Endpoints))
	for i, ep := range cfg.Endpoints {
		names[i] = ep.Name()
	}
	m.obs = newMedObs(cfg.Obs, cfg.Trace, names)
	if cfg.Admission != nil {
		ctl, err := admission.New(*cfg.Admission)
		if err != nil {
			return nil, fmt.Errorf("mediator: %w", err)
		}
		m.admit = ctl
		ctl.Register(cfg.Obs, "mediator")
	}
	if cfg.Obs != nil {
		// Bridge counters the subsystems already keep, sampled at scrape
		// time; the closures capture m, which outlives the registry's
		// use of them only in the trivial sense that both live for the
		// process.
		cfg.Obs.Help("piye_plan_cache_hits_total", "Plan/parse cache hits.")
		cfg.Obs.Help("piye_plan_cache_misses_total", "Plan/parse cache misses.")
		cfg.Obs.CounterFunc("piye_plan_cache_hits_total", func() float64 {
			h, _ := m.plans.Stats()
			return float64(h)
		}, "scope", "mediator")
		cfg.Obs.CounterFunc("piye_plan_cache_misses_total", func() float64 {
			_, mi := m.plans.Stats()
			return float64(mi)
		}, "scope", "mediator")
		cfg.Obs.GaugeFunc("piye_plan_cache_entries", func() float64 {
			return float64(m.plans.Len())
		}, "scope", "mediator")
		cfg.Obs.Help("piye_plan_cache_hit_ratio", "Plan/parse cache lifetime hit ratio (0 until the first lookup).")
		cfg.Obs.GaugeFunc("piye_plan_cache_hit_ratio", func() float64 {
			return m.plans.HitRate()
		}, "scope", "mediator")
		cfg.Obs.Help("piye_warehouse_hits_total", "Hybrid-warehouse hits.")
		cfg.Obs.CounterFunc("piye_warehouse_hits_total", func() float64 {
			h, _, _ := m.WarehouseStats()
			return float64(h)
		})
		cfg.Obs.CounterFunc("piye_warehouse_misses_total", func() float64 {
			_, mi, _ := m.WarehouseStats()
			return float64(mi)
		})
		cfg.Obs.GaugeFunc("piye_warehouse_entries", func() float64 {
			_, _, n := m.WarehouseStats()
			return float64(n)
		})
		cfg.Obs.GaugeFunc("piye_mediator_history_entries", func() float64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return float64(len(m.history))
		})
	}
	if cfg.WarehouseCapacity > 0 {
		wh, err := warehouse.New(cfg.WarehouseCapacity, cfg.WarehouseTTL)
		if err != nil {
			return nil, err
		}
		m.wh = wh
	}
	if cfg.Durability != nil {
		// Recover persisted ledger + history before serving any query:
		// the first answer must already see the full release history.
		if err := m.openDurable(*cfg.Durability); err != nil {
			return nil, err
		}
	}
	if cfg.Replica != nil {
		if err := m.openReplication(*cfg.Replica); err != nil {
			m.Close()
			return nil, err
		}
	}
	if cfg.Shard != nil {
		// After durability replay: the ownership gate's drain decisions
		// consult the recovered history and ledger.
		if err := m.setupShard(*cfg.Shard); err != nil {
			m.Close()
			return nil, err
		}
	}
	if err := m.RefreshSchema(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// RefreshSchema re-runs Mediated Schema Generation with a background
// context; see RefreshSchemaContext.
func (m *Mediator) RefreshSchema() error {
	return m.RefreshSchemaContext(context.Background())
}

// RefreshSchemaContext re-runs Mediated Schema Generation: fetch every
// source's partial summary (concurrently, each under the per-source
// deadline) and merge them. Sources that fail to answer are skipped
// (they simply contribute nothing to the mediated schema).
func (m *Mediator) RefreshSchemaContext(ctx context.Context) error {
	type fetched struct {
		sum      *xmltree.Summary
		profiles []schemamatch.FieldProfile
		suites   []string
	}
	results := make([]fetched, len(m.cfg.Endpoints))
	var wg sync.WaitGroup
	for i, ep := range m.cfg.Endpoints {
		wg.Add(1)
		go func(i int, ep source.Endpoint) {
			defer wg.Done()
			sctx, cancel := m.sourceCtx(ctx)
			defer cancel()
			sum, err := ep.FetchSummary(sctx)
			if err != nil {
				return
			}
			results[i].sum = sum
			if ps, err := ep.FetchProfiles(sctx); err == nil {
				results[i].profiles = ps
			}
			// Suite capability ride-along: a source that answers its
			// summary but not its suites is treated as a legacy MODP-2048
			// node (the HTTP client already maps missing routes there;
			// this covers transport errors too) — fail closed, not open.
			if ss, err := ep.PSISuites(sctx); err == nil && len(ss) > 0 {
				results[i].suites = ss
			} else {
				results[i].suites = []string{psi.SuiteNameModP2048}
			}
		}(i, ep)
	}
	wg.Wait()

	// Merge in endpoint order so the mediated schema is deterministic.
	merged := xmltree.NewSummary()
	bySource := map[string]*xmltree.Summary{}
	profiles := map[string][]schemamatch.FieldProfile{}
	var advertisements [][]string
	okCount := 0
	for i, ep := range m.cfg.Endpoints {
		if results[i].sum == nil {
			continue
		}
		bySource[ep.Name()] = results[i].sum
		merged.Merge(results[i].sum)
		okCount++
		advertisements = append(advertisements, results[i].suites)
		if results[i].profiles != nil {
			profiles[ep.Name()] = results[i].profiles
		}
	}
	if okCount == 0 {
		return fmt.Errorf("mediator: no source produced a summary")
	}
	suite := negotiateSuite(m.cfg.PSISuite, advertisements)
	if m.cfg.Obs != nil {
		m.cfg.Obs.Help("piye_mediator_psi_negotiations_total", "PSI suite negotiation outcomes at schema refresh, by suite.")
		m.cfg.Obs.Counter("piye_mediator_psi_negotiations_total", "suite", suite).Inc()
	}
	correspondences := m.refreshCorrespondences(profiles)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schema = merged
	m.bySource = bySource
	m.vocab = merged.LeafNames()
	m.psiSuite = suite
	m.correspondences = correspondences
	// Materialized results may describe data whose source just changed or
	// disappeared: a schema refresh empties the warehouse. The parse
	// cache goes with it — correspondences feed resolver-expanded
	// routing, so a cached canonicalization may no longer be how the
	// refreshed schema would read the same text.
	if m.wh != nil {
		m.wh.Invalidate("")
	}
	m.plans.Purge()
	// Forget in-flight coalesced executions in the same critical section
	// as the plan purge: a query arriving after the refresh must start a
	// fresh execution against the refreshed schema, never join a flight
	// whose plan was just purged. Leaders still running complete their
	// pre-refresh followers (they all arrived pre-refresh) and find
	// themselves absent from the new map, which is fine.
	m.flightMu.Lock()
	m.flights = map[string]*flight{}
	m.flightMu.Unlock()
	return nil
}

// MediatedSchema returns the current mediated schema.
func (m *Mediator) MediatedSchema() *xmltree.Summary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.schema
}

// negotiateSuite picks the one PSI suite the whole fleet will run.
// Only suites that meet the strength floor (psi.MeetsFloor) are
// candidates. preferred wins iff every source advertises it; otherwise
// the first candidate in the first source's preference order that
// everyone supports; otherwise the hard fail-closed floor, modp2048 — a
// suite nobody advertised is still better than a weak group or two
// sources running different groups and comparing meaningless bytes.
func negotiateSuite(preferred string, advertisements [][]string) string {
	acceptable := func(name string) bool {
		if !psi.MeetsFloor(name) {
			return false
		}
		for _, adv := range advertisements {
			found := false
			for _, s := range adv {
				if s == name {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if acceptable(preferred) {
		return preferred
	}
	if len(advertisements) > 0 {
		for _, candidate := range advertisements[0] {
			if acceptable(candidate) {
				return candidate
			}
		}
	}
	return psi.SuiteNameModP2048
}

// PSISuite reports the suite negotiated at the last schema refresh.
func (m *Mediator) PSISuite() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.psiSuite
}

// Overlap is PrivateOverlap between two of this mediator's sources by
// name, pinned to the suite negotiated at the last schema refresh — the
// entry point callers should prefer, because it can never compare
// elements across diverging groups.
func (m *Mediator) Overlap(ctx context.Context, aName, bName, field string) (int, error) {
	suite := m.PSISuite()
	var a, b source.Endpoint
	for _, ep := range m.cfg.Endpoints {
		switch ep.Name() {
		case aName:
			a = ep
		case bName:
			b = ep
		}
	}
	if a == nil || b == nil {
		return 0, fmt.Errorf("mediator: overlap needs two known sources (have %q, %q)", aName, bName)
	}
	return PrivateOverlap(ctx, a, b, field, suite)
}

// Integrated is the result of one integration round.
type Integrated struct {
	// Result is the integrated, deduplicated result.
	Result *piql.Result
	// Answered lists sources that contributed; Denied lists sources that
	// refused with their reasons.
	Answered []string
	Denied   map[string]string
	// Duplicates is the number of rows removed by duplicate elimination.
	Duplicates int
	// AggregatedLoss is the maximum per-source estimated information
	// loss (the integrated answer is at least as distorted as its most
	// distorted contributor).
	AggregatedLoss float64
	// FromWarehouse reports a materialized answer.
	FromWarehouse bool
	// Stale reports a brownout answer: the mediator was shedding load
	// and served a warehouse materialization past its TTL instead of
	// fanning out. StaleAge is its age in warehouse ticks. Callers that
	// cannot tolerate staleness should retry after the overload clears.
	Stale    bool
	StaleAge int64
}

// Query runs the full mediation pipeline with a background context; see
// QueryContext.
func (m *Mediator) Query(piqlText, requester string) (*Integrated, error) {
	return m.QueryContext(context.Background(), piqlText, requester)
}

// sourceCtx derives the per-source call context: the caller's context,
// bounded by the configured per-source deadline.
func (m *Mediator) sourceCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.cfg.SourceTimeout > 0 {
		return context.WithTimeout(ctx, m.cfg.SourceTimeout)
	}
	return context.WithCancel(ctx)
}

// denialReason renders a source failure for the Denied map. Timeouts and
// circuit-breaker skips get distinguishable prefixes so callers (and the
// E17 experiment) can tell a straggler from a policy refusal.
func (m *Mediator) denialReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if m.cfg.SourceTimeout > 0 {
			return fmt.Sprintf("timeout: no answer within %v", m.cfg.SourceTimeout)
		}
		return "timeout: " + err.Error()
	case errors.Is(err, context.Canceled):
		return "canceled: " + err.Error()
	case errors.Is(err, resilience.ErrOpen):
		return "skipped: " + err.Error()
	default:
		return err.Error()
	}
}

// QueryContext runs the full mediation pipeline for a PIQL query text.
// Every source is queried concurrently under its own deadline
// (Config.SourceTimeout); the integrator returns whatever answered in
// time and records stragglers in Denied with a timeout reason.
func (m *Mediator) QueryContext(ctx context.Context, piqlText, requester string) (*Integrated, error) {
	t0 := time.Now()
	trace := m.obs.startTrace(requester, piqlText)
	// Role gate: a standby mirrors the primary's releases but must not
	// grant its own, and a fenced ex-primary must grant nothing at all —
	// its ledger no longer sees what the successor has released.
	if err := m.writeGate(); err != nil {
		m.obs.finish(trace, t0, nil, err)
		return nil, err
	}
	// Ownership gate: before admission, so a misrouted requester never
	// consumes a concurrency slot it was never entitled to.
	if err := m.shardGate(ctx, requester); err != nil {
		m.obs.finish(trace, t0, nil, err)
		return nil, err
	}
	grant, err := m.admit.Acquire(ctx, requester)
	if err != nil {
		var sh *admission.ShedError
		if errors.As(err, &sh) {
			sh.Scope = "mediator"
			// Brownout: an Overloaded shed may still be answered from
			// the warehouse, staleness allowed and marked. Rate-limit
			// sheds always fail — serving the greedy requester stale
			// data would defeat the throttle.
			if m.cfg.Brownout && sh.Reason == refusal.Overloaded {
				if out := m.brownout(piqlText, requester); out != nil {
					m.obs.finish(trace, t0, out, nil)
					return out, nil
				}
			}
		}
		m.obs.finish(trace, t0, nil, err)
		return nil, err
	}
	out, err := m.queryStages(ctx, piqlText, requester, trace)
	grant.Release(err)
	m.obs.finish(trace, t0, out, err)
	return out, err
}

// brownout serves a shed query from the warehouse regardless of TTL.
// It costs one parse (usually a plan-cache hit) and one map lookup —
// nothing that scales with load — and skips history recording: a
// brownout answer discloses only what an earlier admitted query
// already disclosed and recorded. Returns nil when no materialization
// exists, in which case the shed stands.
func (m *Mediator) brownout(piqlText, requester string) *Integrated {
	if m.wh == nil {
		return nil
	}
	_, canonical, err := m.parseCached(piqlText)
	if err != nil {
		return nil
	}
	res, age, ok := m.wh.GetStale(requester + "|" + canonical)
	if !ok {
		return nil
	}
	return &Integrated{
		Result:        res,
		Answered:      []string{"warehouse"},
		FromWarehouse: true,
		Stale:         true,
		StaleAge:      age,
	}
}

// AdmissionStats snapshots the admission controller (zero when the
// mediator runs ungated), for experiments and tests.
func (m *Mediator) AdmissionStats() admission.Stats { return m.admit.Stats() }

// flight is one in-progress shared pipeline execution. The first caller
// of a (requester, normalized text) pair becomes the leader and runs the
// pipeline; identical concurrent callers become followers, wait on done
// and share sh/err. Per-caller controls run in finalize, never here.
type flight struct {
	done chan struct{}
	sh   *sharedExec
	err  error
}

// sharedExec is what one pipeline execution yields before any
// per-caller control has run: the parsed query and the integrated
// (sorted, limited) result. It is immutable once published to a flight.
type sharedExec struct {
	q         *piql.Query
	canonical string
	out       *Integrated
}

// queryStages is the pipeline body: a shared execution phase (possibly
// coalesced across concurrent identical callers) followed by the
// per-caller control phase.
func (m *Mediator) queryStages(ctx context.Context, piqlText, requester string, trace *obs.Trace) (*Integrated, error) {
	sh, err := m.executeCoalesced(ctx, piqlText, requester, trace)
	if err != nil {
		return nil, err
	}
	return m.finalize(sh, requester, trace)
}

// executeCoalesced runs the shared phase through the singleflight group
// when coalescing is enabled. The flight key includes the requester:
// queries from different requesters never share an execution, so
// per-source policy enforcement always sees the true requester.
func (m *Mediator) executeCoalesced(ctx context.Context, piqlText, requester string, trace *obs.Trace) (*sharedExec, error) {
	if !m.cfg.Coalesce {
		return m.execute(ctx, piqlText, requester, trace)
	}
	key := requester + "\x00" + qcache.Normalize(piqlText)
	ts := m.obs.now()
	m.flightMu.Lock()
	if f, ok := m.flights[key]; ok {
		m.flightMu.Unlock()
		m.obs.coalesced(false)
		select {
		case <-f.done:
		case <-ctx.Done():
			m.obs.stage(trace, "coalesce", ts, spanOutcome(ctx.Err()))
			return nil, ctx.Err()
		}
		m.obs.stage(trace, "coalesce", ts, spanOutcome(f.err))
		return f.sh, f.err
	}
	f := &flight{done: make(chan struct{})}
	m.flights[key] = f
	m.flightMu.Unlock()
	m.obs.coalesced(true)
	f.sh, f.err = m.execute(ctx, piqlText, requester, trace)
	m.flightMu.Lock()
	// Delete only our own entry: RefreshSchema may have replaced the map
	// mid-flight, and the key may already belong to a younger flight.
	if m.flights[key] == f {
		delete(m.flights, key)
	}
	m.flightMu.Unlock()
	close(f.done)
	return f.sh, f.err
}

// execute is the shared pipeline phase: parse, warehouse lookup,
// routing, fan-out, integration, global sort/limit. Everything here is
// a pure function of (query, requester, source state) — nothing
// consumes or updates per-requester control state, which is what makes
// sharing the execution across coalesced callers safe.
func (m *Mediator) execute(ctx context.Context, piqlText, requester string, trace *obs.Trace) (*sharedExec, error) {
	ts := m.obs.now()
	q, canonical, err := m.parseCached(piqlText)
	m.obs.stage(trace, "parse", ts, spanOutcome(err))
	if err != nil {
		return nil, err
	}

	// Hybrid path: serve from the warehouse when fresh.
	whKey := requester + "|" + canonical
	if m.wh != nil {
		ts = m.obs.now()
		res, ok := m.wh.Get(whKey)
		if ok {
			m.obs.stage(trace, "warehouse", ts, obs.OutcomeAnswered)
			return &sharedExec{q: q, canonical: canonical, out: &Integrated{
				Result: res, FromWarehouse: true, Answered: []string{"warehouse"},
			}}, nil
		}
		m.obs.stage(trace, "warehouse", ts, obs.OutcomeSkipped)
	}

	// Fragmenter: route to relevant sources only.
	ts = m.obs.now()
	targets := m.route(q)
	if len(targets) == 0 {
		m.obs.stage(trace, "route", ts, obs.RefusedOutcome(refusal.NoSource.String()))
		return nil, fmt.Errorf("mediator: no source holds data matching %s", q.For)
	}
	m.obs.stage(trace, "route", ts, obs.OutcomeAnswered)

	type reply struct {
		name string
		node *xmltree.Node
		err  error
	}
	// Each goroutine sends exactly one reply into the buffered channel,
	// so a source that overruns its deadline cannot stall collection and
	// the goroutine never leaks.
	tsFanout := m.obs.now()
	replies := make(chan reply, len(targets))
	for _, ep := range targets {
		go func(ep source.Endpoint) {
			tsCall := m.obs.now()
			sctx, cancel := m.sourceCtx(ctx)
			defer cancel()
			node, err := ep.Query(sctx, canonical, requester)
			m.obs.sourceCall(trace, ep.Name(), tsCall, err)
			replies <- reply{name: ep.Name(), node: node, err: err}
		}(ep)
	}

	out := &Integrated{Denied: map[string]string{}}
	var answers []*answer
	for range targets {
		r := <-replies
		if r.err != nil {
			out.Denied[r.name] = m.denialReason(r.err)
			continue
		}
		a, err := parseAnswer(r.node)
		if err != nil {
			out.Denied[r.name] = err.Error()
			continue
		}
		answers = append(answers, a)
		out.Answered = append(out.Answered, r.name)
		if a.estLoss > out.AggregatedLoss {
			out.AggregatedLoss = a.estLoss
		}
	}
	sort.Strings(out.Answered)
	if len(answers) == 0 {
		m.obs.stage(trace, "fanout", tsFanout, obs.RefusedOutcome(refusal.NoSource.String()))
		reasons := make([]string, 0, len(out.Denied))
		for s, r := range out.Denied {
			reasons = append(reasons, s+": "+r)
		}
		sort.Strings(reasons)
		return nil, fmt.Errorf("mediator: every source refused: %s", strings.Join(reasons, "; "))
	}
	m.obs.stage(trace, "fanout", tsFanout, obs.OutcomeAnswered)

	// Result Integrator: merge per-source results. Aggregate queries are
	// re-aggregated by group key (each source contributed partial
	// aggregates over its own rows); plain queries are deduplicated.
	ts = m.obs.now()
	integrated := mergeAnswers(answers)
	if q.IsAggregate() {
		integrated, err = reaggregate(q, integrated)
	} else {
		integrated, out.Duplicates, err = m.dedupe(integrated)
	}
	m.obs.stage(trace, "integrate", ts, spanOutcome(err))
	if err != nil {
		return nil, err
	}

	// Global ordering and limit: per-source ORDER BY does not survive
	// merging, and a per-source LIMIT n yields up to n rows per source.
	// Re-apply both on the integrated result. This runs once per shared
	// execution — the result published to coalesced followers is already
	// in its final shape and is read-only from here on.
	if q.OrderBy != "" {
		// Ignore a missing column: a source-side mitigation may have
		// dropped it, in which case order is unspecified, not an error.
		_ = integrated.Sort(q.OrderBy, q.OrderDesc)
	}
	if q.Limit > 0 && len(integrated.Rows) > q.Limit {
		integrated.Rows = integrated.Rows[:q.Limit]
	}

	out.Result = integrated
	return &sharedExec{q: q, canonical: canonical, out: out}, nil
}

// finalize is the per-caller control phase: loss control, the release
// ledger, warehouse materialization and history recording. Coalesced
// followers each pass through here with their own requester and trace,
// so sharing an execution never lets a query skip a control — exactly
// the plan-cache contract, extended to in-flight sharing.
func (m *Mediator) finalize(sh *sharedExec, requester string, trace *obs.Trace) (*Integrated, error) {
	q, out := sh.q, sh.out
	if out.FromWarehouse {
		m.record(HistoryEntry{Requester: requester, Query: sh.canonical, Sources: []string{"warehouse"}})
		m.maybeSnapshot()
		return out, nil
	}

	// Privacy Control: the aggregated loss must respect the requester's
	// budget — integrating cannot launder a violation (Section 5:
	// computed per-source loss "may not hold after the results are
	// integrated").
	ts := m.obs.now()
	if out.AggregatedLoss > q.MaxLoss {
		m.obs.stage(trace, "control", ts, obs.RefusedOutcome(refusal.LossBudget.String()))
		return nil, fmt.Errorf("mediator: integrated information loss %.2f exceeds the requester's MAXLOSS %.2f",
			out.AggregatedLoss, q.MaxLoss)
	}
	m.obs.stage(trace, "control", ts, obs.OutcomeAnswered)

	// Release ledger: a requester's aggregate releases must not combine
	// into a Figure 1 system (second-level enforcement across queries).
	if q.IsAggregate() {
		if rel, ok := classifyRelease(q, out.Result); ok {
			ts = m.obs.now()
			err := m.ledger.checkAndRecord(requester, rel, m.cfg.MaxDisclosure, m.cfg.LedgerTolerance)
			m.obs.stage(trace, "ledger", ts, spanOutcome(err))
			if err != nil {
				return nil, err
			}
		}
	}

	if m.wh != nil {
		m.wh.Put(requester+"|"+sh.canonical, out.Result)
		m.wh.Tick()
	}
	m.record(HistoryEntry{
		Requester: requester,
		Query:     sh.canonical,
		Sources:   out.Answered,
		Denied:    sortedKeys(out.Denied),
	})
	m.maybeSnapshot()
	return out, nil
}

// Observability exposes the mediator's metrics registry and tracer (nil
// when not configured); the HTTP handler mounts them.
func (m *Mediator) Observability() (*obs.Registry, *obs.Tracer) {
	return m.cfg.Obs, m.cfg.Trace
}

// parsedQuery is one parse-cache entry: the parsed (immutable) query
// and its canonical rendering, which everything downstream keys on.
type parsedQuery struct {
	q         *piql.Query
	canonical string
}

// parseCached resolves PIQL text to a parsed query through the plan
// cache, keyed by whitespace-normalized text. Parsed queries are never
// mutated after Parse, so a shared hit is safe across concurrent
// queries. Only the parse is skipped on a hit — routing, fan-out,
// privacy control and the release ledger all run per query.
func (m *Mediator) parseCached(piqlText string) (*piql.Query, string, error) {
	key := qcache.Normalize(piqlText)
	if v, ok := m.plans.Get(key); ok {
		pq := v.(*parsedQuery)
		return pq.q, pq.canonical, nil
	}
	q, err := piql.Parse(strings.TrimSpace(piqlText))
	if err != nil {
		return nil, "", fmt.Errorf("mediator: %w", err)
	}
	pq := &parsedQuery{q: q, canonical: q.String()}
	m.plans.Put(key, pq)
	return pq.q, pq.canonical, nil
}

// PlanCacheStats exposes the parse/plan cache counters (zeroes when the
// cache is disabled): lifetime hits and misses plus the current entry
// count.
func (m *Mediator) PlanCacheStats() (hits, misses uint64, size int) {
	h, mi := m.plans.Stats()
	return h, mi, m.plans.Len()
}

// route implements the Fragmenter's source selection: a source is
// relevant when its shared summary has any path the FOR pattern (or a
// resolver-expanded variant) can reach.
func (m *Mediator) route(q *piql.Query) []source.Endpoint {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []source.Endpoint
	for _, ep := range m.cfg.Endpoints {
		sum, ok := m.bySource[ep.Name()]
		if !ok {
			// Never summarized (e.g. joined after refresh): try it anyway.
			out = append(out, ep)
			continue
		}
		if summaryReaches(sum, q.For) {
			out = append(out, ep)
		}
	}
	return out
}

// summaryReaches reports whether any summarized path satisfies the FOR
// pattern. Summaries contain every intermediate path, so an exact match
// against some path is necessary and sufficient — MatchesPrefix would
// declare every source reachable whenever the pattern starts with a
// descendant step.
func summaryReaches(sum *xmltree.Summary, pat *xmltree.PathPattern) bool {
	for _, info := range sum.Paths() {
		if pat.Matches(info.Path) {
			return true
		}
	}
	return false
}

// answer is a parsed tagged source answer.
type answer struct {
	source  string
	result  *piql.Result
	estLoss float64
}

func parseAnswer(node *xmltree.Node) (*answer, error) {
	if node.Name != "answer" {
		return nil, fmt.Errorf("mediator: expected <answer>, got <%s>", node.Name)
	}
	src, _ := node.Attr("source")
	resNode := node.Child("result")
	if resNode == nil {
		return nil, fmt.Errorf("mediator: answer from %s has no result", src)
	}
	res, err := piql.ResultFromNode(resNode)
	if err != nil {
		return nil, err
	}
	a := &answer{source: src, result: res}
	if v, ok := node.Attr("estloss"); ok {
		fmt.Sscanf(v, "%g", &a.estLoss)
	}
	return a, nil
}

// mergeAnswers unions result rows over the union of columns; cells a
// source did not produce are empty.
func mergeAnswers(answers []*answer) *piql.Result {
	var cols []string
	seen := map[string]bool{}
	for _, a := range answers {
		for _, c := range a.result.Columns {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	out := &piql.Result{Columns: cols}
	idx := map[string]int{}
	for i, c := range cols {
		idx[c] = i
	}
	for _, a := range answers {
		for _, row := range a.result.Rows {
			nr := make([]string, len(cols))
			for i, c := range a.result.Columns {
				nr[idx[c]] = row[i]
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// dedupe removes exact-duplicate rows always, and fuzzy duplicates on the
// configured column via Bloom-encoded similarity.
func (m *Mediator) dedupe(res *piql.Result) (*piql.Result, int, error) {
	out := &piql.Result{Columns: res.Columns}
	removed := 0

	// Exact pass.
	seen := map[string]bool{}
	for _, row := range res.Rows {
		key := strings.Join(row, "\x00")
		if seen[key] {
			removed++
			continue
		}
		seen[key] = true
		out.Rows = append(out.Rows, row)
	}

	// Fuzzy pass on the dedup column.
	col := -1
	for i, c := range out.Columns {
		if c == m.cfg.DedupColumn {
			col = i
			break
		}
	}
	if m.cfg.DedupColumn == "" || col < 0 || len(m.cfg.LinkageSalt) == 0 {
		return out, removed, nil
	}
	enc, err := linkage.NewEncoder(1000, 20, 2, m.cfg.LinkageSalt)
	if err != nil {
		return nil, 0, err
	}
	type keyed struct {
		block  string
		filter *linkage.Bitset
	}
	// The Bloom encoding of each row is independent, so it fans out
	// across the worker pool — one task per contiguous chunk of rows,
	// since a single encoding is too cheap to justify per-row dispatch.
	// The greedy keep/drop scan below stays serial because each decision
	// depends on every row kept before it.
	keys := make([]keyed, len(out.Rows))
	err = parallel.ForEachChunk(context.Background(), len(out.Rows), m.cfg.Workers, 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v := out.Rows[i][col]
			keys[i] = keyed{block: linkage.BlockKey(m.cfg.LinkageSalt, v), filter: enc.Encode(v)}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var kept []([]string)
	var keptKeys []keyed
	for ri, row := range out.Rows {
		k := keys[ri]
		dup := false
		for i := range keptKeys {
			if keptKeys[i].block != k.block {
				continue
			}
			sim, err := linkage.Dice(keptKeys[i].filter, k.filter)
			if err != nil {
				return nil, 0, err
			}
			if sim >= m.cfg.DedupThreshold {
				dup = true
				break
			}
			_ = kept[i]
		}
		if dup {
			removed++
			continue
		}
		kept = append(kept, row)
		keptKeys = append(keptKeys, k)
	}
	out.Rows = kept
	return out, removed, nil
}

// History returns a copy of the query history.
func (m *Mediator) History() []HistoryEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]HistoryEntry(nil), m.history...)
}

func (m *Mediator) record(e HistoryEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wh != nil {
		e.Clock = m.wh.Now()
	}
	m.history = append(m.history, e)
	m.historyReq[e.Requester] = struct{}{}
	if m.persist != nil {
		m.persist.persistHistory(e)
	}
}

// WarehouseStats exposes hybrid-mode statistics (zeroes when disabled).
func (m *Mediator) WarehouseStats() (hits, misses, size int) {
	if m.wh == nil {
		return 0, 0, 0
	}
	return m.wh.Stats()
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
