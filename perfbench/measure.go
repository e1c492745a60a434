package main

import (
	"bufio"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"privateiye/internal/obs"
)

// counters is a point-in-time reading of everything the per-layer
// metrics difference: the stage histograms and counters the program
// exports through its registries, plus process-wide runtime figures.
type counters struct {
	prom       map[string]float64 // "role:family[/stage]" summed over a role's nodes
	cpu        time.Duration      // process user + system time
	allocs     float64
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	attempts   float64
}

func (c counters) sub(o counters) counters {
	d := counters{
		prom:       map[string]float64{},
		cpu:        c.cpu - o.cpu,
		allocs:     c.allocs - o.allocs,
		allocBytes: c.allocBytes - o.allocBytes,
		gcCPU:      c.gcCPU - o.gcCPU,
		totalCPU:   c.totalCPU - o.totalCPU,
		attempts:   c.attempts - o.attempts,
	}
	for k, v := range c.prom {
		d.prom[k] = v - o.prom[k]
	}
	return d
}

func (c *counters) add(o counters) {
	if c.prom == nil {
		c.prom = map[string]float64{}
	}
	for k, v := range o.prom {
		c.prom[k] += v
	}
	c.cpu += o.cpu
	c.allocs += o.allocs
	c.allocBytes += o.allocBytes
	c.gcCPU += o.gcCPU
	c.totalCPU += o.totalCPU
	c.attempts += o.attempts
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func readCounters(f *fleet) counters {
	c := counters{prom: map[string]float64{}}
	scrape(c.prom, "med", f.shardRegs)
	scrape(c.prom, "src", f.srcRegs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.allocs, c.allocBytes = sampleValue(s[0]), sampleValue(s[1])
	c.gcCPU, c.totalCPU = sampleValue(s[2]), sampleValue(s[3])
	c.attempts = float64(f.probe.attempts.Load())
	return c
}

// scrape sums the Prometheus exposition of regs into out, keyed by role,
// family and stage label. Bucket lines are skipped.
func scrape(out map[string]float64, role string, regs []*obs.Registry) {
	for _, reg := range regs {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			continue
		}
		sc := bufio.NewScanner(strings.NewReader(b.String()))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			series := line[:sp]
			name, labels, _ := strings.Cut(series, "{")
			if strings.HasSuffix(name, "_bucket") {
				continue
			}
			key := role + ":" + name
			if i := strings.Index(labels, `stage="`); i >= 0 {
				rest := labels[i+len(`stage="`):]
				if j := strings.IndexByte(rest, '"'); j >= 0 {
					key += "/" + rest[:j]
				}
			}
			out[key] += v
		}
	}
}

// heapSampler records the peak live Go heap, as each GC cycle marks it,
// until stopped. Live heap rather than allocated heap: the latter peaks
// wherever the pacer happens to start a cycle.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the peak in bytes.
func (h *heapSampler) done() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// phase is one closed-loop measurement window.
type phase struct {
	traced   bool
	results  []result
	elapsed  time.Duration
	peakHeap uint64
	delta    counters
	spans    []span
}

// runPhase runs the clients closed-loop for d, or until they have
// started maxOps ops (0 = no cap): each client sends its next op only
// when the previous one has answered. Ops started before the deadline
// run to completion, and elapsed runs until the last one ends.
func runPhase(r *runner, f *fleet, d time.Duration, maxOps int, traced bool) phase {
	runtime.GC()
	before := readCounters(f)
	f.probe.on.Store(traced)
	heap := startHeapSampler()
	start := time.Now()
	per := make([][]result, clients)
	var started atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d && (maxOps == 0 || started.Add(1) <= int64(maxOps)) {
				per[c] = append(per[c], r.w.op(r, f, c)...)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{traced: traced, elapsed: time.Since(start), peakHeap: heap.done()}
	f.probe.on.Store(false)
	ph.delta = readCounters(f).sub(before)
	ph.spans = f.probe.take()
	for _, rs := range per {
		ph.results = append(ph.results, rs...)
	}
	return ph
}

// percentile interpolates linearly between order statistics.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// summary is the end-to-end view of a set of phases.
type summary struct {
	attempted, failed int
	rateOps           int
	elapsed           time.Duration
	cpu               time.Duration // process CPU time over the phases
	lat               []float64     // ms, sorted, successful latKind results
	peakHeap          uint64
	firstErr          error
}

func summarize(w *workload, phases []phase) summary {
	var s summary
	for _, ph := range phases {
		s.elapsed += ph.elapsed
		s.cpu += ph.delta.cpu
		if ph.peakHeap > s.peakHeap {
			s.peakHeap = ph.peakHeap
		}
		for _, res := range ph.results {
			s.attempted++
			if res.err != nil {
				s.failed++
				if s.firstErr == nil {
					s.firstErr = res.err
				}
				continue
			}
			if res.kind == w.rateKind {
				s.rateOps++
			}
			if res.kind == w.latKind {
				s.lat = append(s.lat, float64(res.lat)/float64(time.Millisecond))
			}
		}
	}
	sort.Float64s(s.lat)
	return s
}

func (s summary) opsPerSec() float64 { return float64(s.rateOps) / s.elapsed.Seconds() }

// cpuMsPerOp is the process CPU time (every layer, the load generator and
// the answer checks) per rateKind op that passed its check.
func (s summary) cpuMsPerOp() float64 {
	return float64(s.cpu) / float64(time.Millisecond) / float64(s.rateOps)
}
