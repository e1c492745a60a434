// Command perfbench is the repository's benchmark. It runs the deployed
// topology (router -> two mediator shards -> three HTTP sources) in one
// process, drives it with closed-loop clients under one workload, checks
// every answer, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload agg-fresh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a run whose timed phase alternates
// untraced and traced slices, and the report above it prints every
// per-layer metric, each layer's residual and the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"privateiye/internal/shard"
)

// setups is how many times a run builds the fleet at least; setup_s is
// the median build, and the last fleet serves the timed phase. A fleet
// that builds in milliseconds is built again, up to four times as often,
// until the builds have taken setupSpan, so that its median rests on
// more samples than a single host hiccup can move.
const (
	setups    = 5
	setupSpan = time.Second
)

// perLayerJSON are the per-layer metrics a traced run prints in its
// result: those every workload exercises. The report prints the rest.
var perLayerJSON = []string{
	"mediator.serve_us", "mediator.self_us",
	"source.call_us", "source.serve_us", "source.transport_us",
	"source.calls_per_op", "source.resp_bytes",
	"process.cpu_ms_per_op", "process.allocs_per_op", "process.alloc_bytes_per_op", "process.gc_cpu_share",
	"trace.overhead_pct",
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	stateRoot string
	setups    int
	tamper    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run with per-layer metrics")
	fs.StringVar(&o.stateRoot, "state-root", ".bench_build/state", "directory for the shards' WAL state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.setups = setups
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1 and --seconds must be positive")
		return 2
	}
	// A hung fleet must not hold the caller past its deadline.
	watchdog := time.AfterFunc(time.Duration(o.seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(1)
	})
	defer watchdog.Stop()
	if err := bench(o, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func bench(o options, stdout io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.stateRoot, 0o755); err != nil {
		return err
	}
	r := &runner{w: w, seed: o.seed, probe: newProbe(), ring: shard.New(shard.DefaultSeed, 0)}
	for _, name := range shardNames {
		if err := r.ring.Add(name); err != nil {
			return err
		}
	}
	if w.prepare != nil {
		if err := w.prepare(r); err != nil {
			return fmt.Errorf("preparing reference answers: %w", err)
		}
	}

	var f *fleet
	var setupTimes []float64
	var spent time.Duration
	for i := 0; i < o.setups || i < 4*o.setups && spent < setupSpan; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		dir := filepath.Join(o.stateRoot, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		t0 := time.Now()
		f, err = newFleet(w.shape, o.seed, dir, r.probe, o.trace)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := warm(r, f); err != nil {
			f.close()
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setupTimes = append(setupTimes, took.Seconds())
	}
	defer f.close()
	r.tamper = o.tamper

	d := time.Duration(o.seconds * float64(time.Second))
	maxOps := int(w.opsBudget * o.seconds)
	var phases []phase
	if o.trace {
		// Untraced and traced slices in U T T U order, so state that
		// grows during the run weighs on both modes alike.
		for _, traced := range []bool{false, true, true, false} {
			phases = append(phases, runPhase(r, f, d/4, maxOps/4, traced))
		}
	} else {
		phases = append(phases, runPhase(r, f, d, maxOps, false))
	}

	all := summarize(w, phases)
	out := resultOut{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metricOut{},
	}
	bw := bufio.NewWriter(stdout)
	writeStamp(bw, o, w, all, len(setupTimes))
	fmt.Fprintf(bw, "fleet: %s; flush: -fsync never, state on %s\n", w.shape, fsType(o.stateRoot))
	fmt.Fprintf(bw, "setup_s per build: %v\n", roundAll(setupTimes))
	if all.failed > 0 {
		fmt.Fprintf(bw, "fail_ratio %.4f; first failure: %v\n", float64(all.failed)/float64(all.attempted), all.firstErr)
	} else {
		fmt.Fprintf(bw, "fail_ratio 0 over %d attempted requests\n", all.attempted)
	}

	fmt.Fprintf(bw, "ops by kind: %s\n", kindCounts(phases))
	if !o.trace {
		// Throughput and the tail follow the host: on a shared VM a burst
		// of stolen CPU time moves them, where it leaves the median op and
		// the CPU time per op alone. They are printed for diagnosis only.
		fmt.Fprintf(bw, "diagnosis only: ops_per_s %.4f p90_ms %.4f p99_ms %.4f (n=%d)\n",
			all.opsPerSec(), percentile(all.lat, 0.9), percentile(all.lat, 0.99), len(all.lat))
		e2e := endToEnd(all, median(setupTimes))
		for _, m := range e2e {
			out.Metrics[m.name] = metricOut{finite(m.value), m.unit}
			fmt.Fprintf(bw, "%-16s %12.4f %s\n", m.name, m.value, m.unit)
		}
	} else {
		var untraced, traced []phase
		var delta counters
		var spans []span
		for _, ph := range phases {
			if ph.traced {
				traced = append(traced, ph)
				delta.add(ph.delta)
				spans = append(spans, ph.spans...)
			} else {
				untraced = append(untraced, ph)
			}
		}
		u, t := summarize(w, untraced), summarize(w, traced)
		agg := aggregate(spans)
		ms := layerMetrics(agg, delta)
		overhead := (percentile(t.lat, 0.5)/percentile(u.lat, 0.5) - 1) * 100
		ms = append(ms, metric{"trace.overhead_pct", "%", overhead})

		fmt.Fprintf(bw, "untraced slices: ops_per_s %.4f p50_ms %.4f p90_ms %.4f p99_ms %.4f (n=%d, diagnosis only)\n",
			u.opsPerSec(), percentile(u.lat, 0.5), percentile(u.lat, 0.9), percentile(u.lat, 0.99), len(u.lat))
		fmt.Fprintf(bw, "traced slices:   ops_per_s %.4f p50_ms %.4f p90_ms %.4f p99_ms %.4f (n=%d)\n",
			t.opsPerSec(), percentile(t.lat, 0.5), percentile(t.lat, 0.9), percentile(t.lat, 0.99), len(t.lat))
		fmt.Fprintf(bw, "tracing overhead: p50 %+.2f%%, ops_per_s %+.2f%%\n",
			overhead, (t.opsPerSec()/u.opsPerSec()-1)*100)
		writeLayerTable(bw, agg)
		byName := map[string]metric{}
		for _, m := range ms {
			byName[m.name] = m
			fmt.Fprintf(bw, "%-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
		writeResiduals(bw, byName)
		for _, name := range perLayerJSON {
			m, ok := byName[name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", name)
			}
			out.Metrics[name] = metricOut{finite(m.value), m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// warm is the set-up's own work: the workload's extra warming, then one
// untimed op per client.
func warm(r *runner, f *fleet) error {
	if r.w.warm != nil {
		if err := r.w.warm(r, f); err != nil {
			return err
		}
	}
	for c := 0; c < clients; c++ {
		for _, res := range r.w.op(r, f, c) {
			if res.err != nil {
				return fmt.Errorf("warm-up op: %w", res.err)
			}
		}
	}
	return nil
}

// endToEnd derives the untraced run's end-to-end metrics.
func endToEnd(s summary, setup float64) []metric {
	return []metric{
		{"setup_s", "s", setup},
		{"p50_ms", "ms", percentile(s.lat, 0.5)},
		{"cpu_ms_per_op", "ms", s.cpuMsPerOp()},
		{"peak_heap_mb", "MB", float64(s.peakHeap) / (1 << 20)},
	}
}

// kindCounts lists how many results of each kind the phases hold, with
// their rate over the phases' time.
func kindCounts(phases []phase) string {
	n := map[string]int{}
	var elapsed time.Duration
	for _, ph := range phases {
		elapsed += ph.elapsed
		for _, res := range ph.results {
			n[res.kind]++
		}
	}
	kinds := make([]string, 0, len(n))
	for k := range n {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s %d (%.3f/s)", k, n[k], float64(n[k])/elapsed.Seconds())
	}
	return strings.Join(parts, ", ")
}

// writeResiduals prints, per layer, the time none of its stages or
// children accounts for.
func writeResiduals(w io.Writer, m map[string]metric) {
	fmt.Fprintln(w, "residuals (time no stage or child span accounts for):")
	for _, r := range []struct{ name, what string }{
		{"shard.hop_us", "router: shard.serve - mediator.serve"},
		{"mediator.residual_us", "mediator: serve - stage sum"},
		{"mediator.fanout_wait_us", "mediator: fanout - slowest source call"},
		{"mediator.overlap_self_us", "mediator: overlap - its source calls"},
		{"source.transport_us", "wire: source.call - source.serve"},
		{"source.codec_us", "source: serve - stage sum"},
	} {
		if v, ok := m[r.name]; ok {
			fmt.Fprintf(w, "  %-26s %12.1f us  (%s)\n", r.name, v.value, r.what)
		}
	}
}

func writeStamp(w io.Writer, o options, wl *workload, s summary, builds int) {
	fmt.Fprintf(w, "stamp: workload=%s seed=%d seconds=%g trace=%t cpu=%q nproc=%d gomaxprocs=%d go=%s state_fs=%s clients=%d setups=%d ops=%d\n",
		wl.name, o.seed, o.seconds, o.trace, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), fsType(o.stateRoot), clients, builds, s.attempted)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}
