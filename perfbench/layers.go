package main

// Per-layer metrics of a traced run: span durations and self times from
// the probe, per-op deltas of the program's own stage histograms and
// counters, and process-wide runtime figures. A layer's self time is its
// span minus the part of that interval its child spans cover.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// childLayers names the layers a span of each layer causes.
var childLayers = map[string][]string{
	"op":               {"shard.serve", "mediator.overlap"},
	"shard.serve":      {"mediator.serve"},
	"mediator.serve":   {"source.call"},
	"mediator.overlap": {"source.call"},
	"source.call":      {"source.serve"},
}

var layerOrder = []string{"op", "shard.serve", "mediator.serve", "mediator.overlap", "source.call", "source.serve"}

var (
	mediatorStageNames = []string{"parse", "coalesce", "warehouse", "route", "fanout", "integrate", "control", "ledger"}
	reportedMedStages  = []string{"parse", "route", "fanout", "integrate", "control", "ledger"}
	sourceStageNames   = []string{"plan", "audit", "execute", "preserve"}
)

// isChild reports whether c is a span that parent caused.
func isChild(parent, c span) bool {
	if c.start < parent.start || c.end > parent.end {
		return false
	}
	for _, l := range childLayers[parent.layer] {
		if c.layer != l {
			continue
		}
		// A source call's serve span is at the same source and method;
		// the op's other calls run in parallel and must not count.
		if parent.layer == "source.call" {
			return c.node == parent.node && c.method == parent.method
		}
		return true
	}
	return false
}

// covered is the length of parent's interval that kids cover.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		ivs = append(ivs, iv{max(k.start, parent.start), min(k.end, parent.end)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if v.b <= v.a {
			continue
		}
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerAgg accumulates one layer's spans.
type layerAgg struct {
	n         int
	dur, self int64
	bytes     int64
}

// traceAgg is the span side of a traced run.
type traceAgg struct {
	ops        int
	layers     map[string]*layerAgg
	byMethod   map[string]*layerAgg // source.call by method
	psiBytes   int64                // request + response bytes on the PSI routes
	queryServe layerAgg             // source.serve of /query calls
	// slowestCall sums, over mediator.serve spans, the slowest source
	// call each waited for.
	slowestCall int64
	medSpans    int
	unmatched   int // spans no op claimed
}

func aggregate(spans []span) *traceAgg {
	t := &traceAgg{layers: map[string]*layerAgg{}, byMethod: map[string]*layerAgg{}}
	for _, l := range layerOrder {
		t.layers[l] = &layerAgg{}
	}
	byID := map[string][]span{}
	var ops []span
	for _, s := range spans {
		if s.layer == "op" {
			ops = append(ops, s)
		} else {
			byID[s.id] = append(byID[s.id], s)
		}
	}
	claimed := 0
	for _, op := range ops {
		t.ops++
		members := []span{op}
		for _, s := range byID[op.id] {
			if s.start >= op.start && s.end <= op.end {
				members = append(members, s)
			}
		}
		claimed += len(members) - 1
		for _, s := range members {
			var kids []span
			var slowest int64
			for _, c := range members {
				if isChild(s, c) {
					kids = append(kids, c)
					if c.layer == "source.call" && c.dur() > slowest {
						slowest = c.dur()
					}
				}
			}
			self := s.dur() - covered(s, kids)
			a := t.layers[s.layer]
			a.n++
			a.dur += s.dur()
			a.self += self
			a.bytes += s.bytes
			switch s.layer {
			case "mediator.serve":
				t.slowestCall += slowest
				t.medSpans++
			case "source.call":
				m := t.byMethod[s.method]
				if m == nil {
					m = &layerAgg{}
					t.byMethod[s.method] = m
				}
				m.n++
				m.dur += s.dur()
				m.self += self
			case "source.serve":
				if s.method == "query" {
					t.queryServe.n++
					t.queryServe.dur += s.dur()
				} else {
					t.psiBytes += s.bytes + s.reqBytes
				}
			}
		}
	}
	t.unmatched = len(spans) - len(ops) - claimed
	return t
}

// metric is one named per-layer figure.
type metric struct {
	name, unit string
	value      float64
}

func us(ns float64) float64 { return ns / float64(time.Microsecond) }

// layerMetrics derives every per-layer metric that applies to the run.
// d holds the counter deltas over the traced phases.
func layerMetrics(t *traceAgg, d counters) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	ops := float64(t.ops)
	if ops == 0 {
		return nil
	}
	L := t.layers

	if a := L["shard.serve"]; a.n > 0 {
		add("shard.serve_us", "us", us(float64(a.dur)/ops))
		add("shard.hop_us", "us", us(float64(a.self)/ops))
		add("shard.attempts_per_op", "count", d.attempts/ops)
	}

	med := *L["mediator.serve"]
	med.n += L["mediator.overlap"].n
	med.dur += L["mediator.overlap"].dur
	med.self += L["mediator.overlap"].self
	if med.n > 0 {
		add("mediator.serve_us", "us", us(float64(med.dur)/ops))
		add("mediator.self_us", "us", us(float64(med.self)/ops))
	}
	if q := d.prom["med:piye_mediator_query_seconds_count"]; q > 0 && L["mediator.serve"].n > 0 {
		stageUS := map[string]float64{}
		var stageSum float64
		for _, st := range mediatorStageNames {
			stageUS[st] = d.prom["med:piye_mediator_stage_seconds_sum/"+st] / q * 1e6
			stageSum += stageUS[st]
		}
		for _, st := range reportedMedStages {
			add("mediator."+st+"_us", "us", stageUS[st])
		}
		serve := L["mediator.serve"]
		add("mediator.fanout_wait_us", "us", stageUS["fanout"]-us(float64(t.slowestCall)/float64(t.medSpans)))
		add("mediator.residual_us", "us", us(float64(serve.dur)/float64(serve.n))-stageSum)
	}
	if a := L["mediator.overlap"]; a.n > 0 {
		add("mediator.overlap_self_us", "us", us(float64(a.self)/float64(a.n)))
	}

	call, serve := L["source.call"], L["source.serve"]
	if call.n > 0 {
		add("source.call_us", "us", us(float64(call.dur)/float64(call.n)))
		for _, m := range []string{"query", "psi_blind", "psi_exp"} {
			if a := t.byMethod[m]; a != nil && a.n > 0 {
				add("source.call_"+m+"_us", "us", us(float64(a.dur)/float64(a.n)))
			}
		}
		add("source.calls_per_op", "count", float64(call.n)/ops)
		add("source.transport_us", "us", us(float64(call.self)/float64(call.n)))
	}
	if serve.n > 0 {
		add("source.serve_us", "us", us(float64(serve.dur)/float64(serve.n)))
		add("source.resp_bytes", "bytes", float64(serve.bytes)/float64(serve.n))
	}
	if q := d.prom["src:piye_source_query_seconds_count"]; q > 0 && t.queryServe.n > 0 {
		var stageSum float64
		for _, st := range sourceStageNames {
			v := d.prom["src:piye_source_stage_seconds_sum/"+st] / q * 1e6
			stageSum += v
			add("source."+st+"_us", "us", v)
		}
		add("source.codec_us", "us", us(float64(t.queryServe.dur)/float64(t.queryServe.n))-stageSum)
	}
	if h, m := d.prom["src:piye_plan_cache_hits_total"], d.prom["src:piye_plan_cache_misses_total"]; h+m > 0 {
		add("source.plan_hit_ratio", "ratio", h/(h+m))
	}

	if a := d.prom["med:piye_wal_appends_total"]; a > 0 {
		add("durable.appends_per_op", "count", a/ops)
		add("durable.fsyncs_per_op", "count", d.prom["med:piye_wal_fsyncs_total"]/ops)
		add("durable.bytes_per_op", "bytes", d.prom["med:piye_wal_bytes_total"]/ops)
	}

	if e := d.prom["src:piye_psi_exponentiate_items_total"]; e > 0 {
		add("psi.exp_items_per_op", "count", e/ops)
		if b := d.prom["src:piye_psi_blind_items_total"]; b > 0 {
			add("psi.blind_hit_ratio", "ratio", d.prom["src:piye_psi_blind_cache_hits_total"]/b)
		}
		add("psi.elem_bytes_per_op", "bytes", float64(t.psiBytes)/ops)
	}

	add("process.cpu_ms_per_op", "ms", float64(d.cpu)/float64(time.Millisecond)/ops)
	add("process.allocs_per_op", "count", d.allocs/ops)
	add("process.alloc_bytes_per_op", "bytes", d.allocBytes/ops)
	if d.totalCPU > 0 {
		add("process.gc_cpu_share", "ratio", d.gcCPU/d.totalCPU)
	}
	return out
}

// writeLayerTable prints each layer's span and self time per op, and
// what no layer's span accounts for.
func writeLayerTable(w io.Writer, t *traceAgg) {
	fmt.Fprintf(w, "layer              spans/op    span_us/op    self_us/op\n")
	for _, l := range layerOrder {
		a := t.layers[l]
		if a.n == 0 {
			continue
		}
		ops := float64(t.ops)
		fmt.Fprintf(w, "%-18s %8.2f %13.1f %13.1f\n", l, float64(a.n)/ops, us(float64(a.dur)/ops), us(float64(a.self)/ops))
	}
	if t.unmatched > 0 {
		fmt.Fprintf(w, "spans outside any op: %d\n", t.unmatched)
	}
}
