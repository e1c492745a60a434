package experiments

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/core"
	"privateiye/internal/durable"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// obsSystem builds the single-source Figure 1 deployment used by E20 and
// the bench guard: warehouse on (the cached path under test), plan cache
// on, and — when reg/tracer are non-nil — the full observability layer.
func obsSystem(reg *obs.Registry, tracer *obs.Tracer) (*core.System, error) {
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		return nil, err
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		return nil, err
	}
	pol, err := policy.NewPolicy("integrator", policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9})
	if err != nil {
		return nil, err
	}
	return core.NewSystem(core.SystemConfig{
		Sources: []source.Config{{
			Name: "integrator", Catalog: cat, Policy: pol, Registry: preserve.NewRegistry(),
		}},
		PSIGroup:          psi.TestGroup(),
		PlanCache:         256,
		WarehouseCapacity: 8,
		WarehouseTTL:      100,
		Obs:               reg,
		Trace:             tracer,
	})
}

const e20Query = "FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate PURPOSE research MAXLOSS 0.9"

// cachedQueryNs times the warehouse-served (hot) path: one priming query
// populates the warehouse, then n repeats of the same query and requester
// are all served from it. Returns average ns per query.
func cachedQueryNs(sys *core.System, n int) (float64, error) {
	if _, err := sys.Query(e20Query, "analyst"); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		out, err := sys.Query(e20Query, "analyst")
		if err != nil {
			return 0, err
		}
		if !out.FromWarehouse {
			return 0, fmt.Errorf("experiments: repeat query missed the warehouse")
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// fanoutQueryNs times the full mediation path: distinct requesters defeat
// the warehouse, so every query parses (cached), fans out, integrates and
// passes the controls. Returns average ns per query.
func fanoutQueryNs(sys *core.System, n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := sys.Query(e20Query, fmt.Sprintf("analyst-%d", i)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// E20ObsOverhead measures what the observability layer costs on the two
// query paths: the warehouse-served cached path (the hot path the <3%
// target applies to) and the full fan-out path. Three identical systems
// are timed — bare, metrics-only, and metrics+tracing — and the fastest
// of several rounds is kept per configuration, so a scheduler hiccup in
// one round cannot masquerade as instrumentation cost. Splitting metrics
// from tracing matters: metric updates are constant-cost atomics, while
// each trace is a per-query allocation an operator opts into (-trace-ring).
func E20ObsOverhead(queries, rounds int) (*Table, error) {
	if rounds < 1 {
		rounds = 1
	}
	bare, err := obsSystem(nil, nil)
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	metricsReg := obs.NewRegistry()
	obs.RegisterProcessMetrics(metricsReg)
	metricsOnly, err := obsSystem(metricsReg, nil)
	if err != nil {
		return nil, err
	}
	defer metricsOnly.Close()
	fullReg := obs.NewRegistry()
	obs.RegisterProcessMetrics(fullReg)
	full, err := obsSystem(fullReg, obs.NewTracer(64))
	if err != nil {
		return nil, err
	}
	defer full.Close()

	systems := []*core.System{bare, metricsOnly, full}
	minOf := func(f func(*core.System, int) (float64, error)) ([3]float64, error) {
		var best [3]float64
		// Interleave configurations across rounds so all three sample
		// the same machine conditions.
		for r := 0; r < rounds; r++ {
			for i, sys := range systems {
				v, err := f(sys, queries)
				if err != nil {
					return best, err
				}
				if r == 0 || v < best[i] {
					best[i] = v
				}
			}
		}
		return best, nil
	}

	cached, err := minOf(cachedQueryNs)
	if err != nil {
		return nil, err
	}
	fan, err := minOf(fanoutQueryNs)
	if err != nil {
		return nil, err
	}

	overhead := func(bareNs, instNs float64) string {
		return fmt.Sprintf("%+.1f%%", (instNs-bareNs)/bareNs*100)
	}
	row := func(path string, v [3]float64) []string {
		return []string{
			path, nsStr(v[0]),
			nsStr(v[1]), overhead(v[0], v[1]),
			nsStr(v[2]), overhead(v[0], v[2]),
		}
	}
	t := &Table{
		Title:  "E20: observability overhead (min over interleaved rounds)",
		Header: []string{"path", "bare", "metrics", "overhead", "metrics+trace", "overhead"},
		Rows: [][]string{
			row("cached (warehouse hit)", cached),
			row("full fan-out", fan),
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d queries/round, %d rounds, best round kept; NumCPU=%d", queries, rounds, runtime.NumCPU()),
		"metrics = registry + process metrics (atomic counters/histograms); +trace adds the 64-trace ring (one allocation per query)",
		"wall-clock on a shared machine jitters a few percent between runs; treat single-digit deltas as bounds, not point estimates")
	return t, nil
}

func nsStr(ns float64) string {
	// 10ns granularity: whole-µs rounding would render a 1.3µs vs 2.0µs
	// comparison as "1µs vs 2µs".
	return time.Duration(int64(ns)).Round(10 * time.Nanosecond).String()
}

// --- Bench guard -----------------------------------------------------------

// BenchBaseline is the committed perf baseline the guard compares
// against (bench/baseline.json).
type BenchBaseline struct {
	// Note documents how the baseline was produced.
	Note string `json:"note"`
	// MetricsNs maps metric name -> nanoseconds per operation.
	MetricsNs map[string]float64 `json:"metrics_ns"`
}

// measureGuardRounds runs the guard's deterministic mini-suite and
// returns the per-round ns/op samples per metric. The metrics
// deliberately cover the paths the recent optimisation work touched: the
// warehouse-served cached query, the full fan-out query, and a PSI blind
// round.
func measureGuardRounds(queries, rounds int) (map[string][]float64, error) {
	reg := obs.NewRegistry()
	sys, err := obsSystem(reg, obs.NewTracer(64))
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	if rounds < 1 {
		rounds = 1
	}
	out := map[string][]float64{}
	measure := func(name string, f func() (float64, error)) error {
		samples := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			v, err := f()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			samples = append(samples, v)
		}
		out[name] = samples
		return nil
	}
	if err := measure("cached_query", func() (float64, error) { return cachedQueryNs(sys, queries) }); err != nil {
		return nil, err
	}
	if err := measure("fanout_query", func() (float64, error) { return fanoutQueryNs(sys, queries) }); err != nil {
		return nil, err
	}
	// A fresh MODP party's cold round, ns per item.
	if err := measure("psi_blind_item", func() (float64, error) {
		g := psi.TestGroup()
		p, err := psi.NewParty(psi.ModPSuite(g), rand.Reader)
		if err != nil {
			return 0, err
		}
		items := make([]string, 200)
		for i := range items {
			items[i] = fmt.Sprintf("patient-%d", i)
		}
		start := time.Now()
		_ = p.Blind(items)
		return float64(time.Since(start).Nanoseconds()) / float64(len(items)), nil
	}); err != nil {
		return nil, err
	}
	// The PSI blind kernel on its amortized path: warm precomputation-
	// table lookups, where chunked dispatch is the entire cost. One party
	// is warmed once and shared across rounds — steady state is the path
	// the endpoints run on every integration round.
	batchParty, err := psi.NewParty(psi.TestSuite(), rand.Reader)
	if err != nil {
		return nil, err
	}
	batchItems := make([]string, 512)
	for i := range batchItems {
		batchItems[i] = fmt.Sprintf("patient-%d", i)
	}
	batchParty.Blind(batchItems)
	if err := measure("psi_blind_batch_item", func() (float64, error) {
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			batchParty.Blind(batchItems)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(batchItems)), nil
	}); err != nil {
		return nil, err
	}
	// The EC suite's cold path: a fresh p256 party per round (no
	// precomputation table), ns per blinded item. Guards the
	// hash-to-curve and scalar-mult kernels the new default rides on.
	if err := measure("psi_ec_blind_cold", func() (float64, error) {
		p, err := psi.NewParty(psi.P256Suite(), rand.Reader)
		if err != nil {
			return 0, err
		}
		items := make([]string, 200)
		for i := range items {
			items[i] = fmt.Sprintf("patient-%d", i)
		}
		start := time.Now()
		p.Blind(items)
		return float64(time.Since(start).Nanoseconds()) / float64(len(items)), nil
	}); err != nil {
		return nil, err
	}
	// Canonical wire width of one p256 element in bytes. Deterministic,
	// so tolerance never saves it: any encoding change that fattens the
	// element past the baseline fails the guard outright.
	if err := measure("psi_ec_wire_bytes", func() (float64, error) {
		s := psi.P256Suite()
		e := s.HashToGroup(nil, "guard")
		return float64(len(s.AppendElement(nil, e))), nil
	}); err != nil {
		return nil, err
	}
	// Group-committed WAL appends under concurrency: ns per acked append
	// with 8 writers sharing fsyncs, the path every durable release takes
	// when -group-commit is on.
	if err := measure("wal_group_append", func() (float64, error) {
		dir, err := os.MkdirTemp("", "guard-wal-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		l, err := durable.Open(durable.Options{
			Dir: dir, Fsync: durable.FsyncAlways,
			GroupCommit: true, GroupMaxBatch: 8,
		})
		if err != nil {
			return 0, err
		}
		const writers, per = 8, 16
		rec := []byte(`{"k":"release","req":"guard","rel":{"t":"//compliance/row","v":"rate","a":"test"}}`)
		errc := make(chan error, writers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := l.Append(rec); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errc)
		for err := range errc {
			l.Close()
			return 0, err
		}
		if err := l.Close(); err != nil {
			return 0, err
		}
		return float64(elapsed.Nanoseconds()) / float64(writers*per), nil
	}); err != nil {
		return nil, err
	}
	// The router hot path: the per-query ring placement, and the full
	// proxy hop against an instant shard (router cost only — HTTP in,
	// lookup, HTTP out, passthrough back).
	if err := measure("router_lookup", routerLookupNs); err != nil {
		return nil, err
	}
	proxyQueries := queries / 4
	if proxyQueries < 50 {
		proxyQueries = 50
	}
	if err := measure("router_proxy", func() (float64, error) { return routerProxyNs(proxyQueries) }); err != nil {
		return nil, err
	}
	return out, nil
}

func medianOf(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOfSamples(samples []float64) float64 {
	best := samples[0]
	for _, v := range samples[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// WriteBaseline measures and writes the guard baseline file. The
// baseline records the median of the rounds — the machine's typical
// speed — while CheckBaseline compares the best current round against
// it, so a momentarily-fast machine at record time cannot poison the
// baseline into flagging phantom regressions later.
func WriteBaseline(path string, queries, rounds int) error {
	samples, err := measureGuardRounds(queries, rounds)
	if err != nil {
		return err
	}
	m := map[string]float64{}
	for name, s := range samples {
		m[name] = medianOf(s)
	}
	b, err := json.MarshalIndent(BenchBaseline{
		Note:      "median-of-rounds ns/op per guard metric; regenerate on the reference machine with piye-bench -update-baseline",
		MetricsNs: m,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// CheckBaseline measures the guard metrics and compares them against the
// baseline file: any metric whose BEST round is more than tolerance
// slower than the recorded MEDIAN baseline fails. The asymmetry is
// deliberate — on a shared machine individual rounds jitter well past
// 10%, but a genuine regression slows every round, including the best
// one. Returns a rendered table and the list of violated metric names.
func CheckBaseline(path string, queries, rounds int, tolerance float64) (*Table, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var base BenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, nil, fmt.Errorf("decoding baseline %s: %w", path, err)
	}
	cur, err := measureGuardRounds(queries, rounds)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("bench-guard: best current round vs %s (tolerance %.0f%%)", path, tolerance*100),
		Header: []string{"metric", "baseline", "current (best)", "delta", "verdict"},
	}
	var failed []string
	for _, name := range []string{"cached_query", "fanout_query", "psi_blind_item", "psi_blind_batch_item", "psi_ec_blind_cold", "psi_ec_wire_bytes", "wal_group_append", "router_lookup", "router_proxy"} {
		baseNs, ok := base.MetricsNs[name]
		if !ok {
			continue
		}
		curNs := minOfSamples(cur[name])
		delta := (curNs - baseNs) / baseNs
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSION"
			failed = append(failed, name)
		}
		t.Rows = append(t.Rows, []string{
			name, nsStr(baseNs), nsStr(curNs), fmt.Sprintf("%+.1f%%", delta*100), verdict,
		})
	}
	return t, failed, nil
}
