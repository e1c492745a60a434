package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("piye_test_total", "reason", "policy-denied")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Same (name, labels) resolves to the same series.
	if r.Counter("piye_test_total", "reason", "policy-denied") != c {
		t.Fatal("re-resolving a series must return the same counter")
	}
	g := r.Gauge("piye_test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("piye_test_seconds", []float64{0.01, 0.1, 1}, "stage", "parse")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5) // above every bound: only +Inf
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if got := h.Sum(); got < 5.054 || got > 5.056 {
		t.Fatalf("hist sum = %v, want ~5.055", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Help("piye_q_total", "queries")
	r.Counter("piye_q_total", "outcome", "answered").Add(7)
	r.Counter("piye_q_total", "outcome", "refused").Add(2)
	r.Gauge("piye_up").Set(1)
	r.Histogram("piye_lat_seconds", []float64{0.1, 1}).Observe(0.5)
	r.CounterFunc("piye_hits_total", func() float64 { return 41 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP piye_q_total queries",
		"# TYPE piye_q_total counter",
		`piye_q_total{outcome="answered"} 7`,
		`piye_q_total{outcome="refused"} 2`,
		"# TYPE piye_up gauge",
		"piye_up 1",
		`piye_lat_seconds_bucket{le="0.1"} 0`,
		`piye_lat_seconds_bucket{le="1"} 1`,
		`piye_lat_seconds_bucket{le="+Inf"} 1`,
		"piye_lat_seconds_sum 0.5",
		"piye_lat_seconds_count 1",
		"piye_hits_total 41",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, even with several series.
	if n := strings.Count(out, "# TYPE piye_q_total"); n != 1 {
		t.Errorf("family piye_q_total has %d TYPE headers, want 1", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("piye_esc_total", "msg", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `msg="a\"b\\c\nd"`) {
		t.Errorf("label not escaped: %s", b.String())
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", nil).Observe(1)
	r.CounterFunc("f", func() float64 { return 1 })
	r.Help("x", "h")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	trace := tr.Start("alice", "FOR //x RETURN //y")
	trace.Record("parse", "", time.Now(), 0, OutcomeAnswered)
	trace.Finish(OutcomeAnswered)
	if got := tr.Last(5); got != nil {
		t.Fatalf("nil tracer Last = %v, want nil", got)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		trace := tr.Start("alice", "q")
		start := time.Now()
		time.Sleep(time.Millisecond)
		trace.Record("parse", "", start, time.Since(start), OutcomeAnswered)
		trace.Finish(OutcomeAnswered)
	}
	got := tr.Last(10)
	if len(got) != 3 {
		t.Fatalf("ring keeps %d traces, want 3", len(got))
	}
	// Newest first, ids descending.
	if got[0].ID != 5 || got[1].ID != 4 || got[2].ID != 3 {
		t.Fatalf("ids = %d,%d,%d, want 5,4,3", got[0].ID, got[1].ID, got[2].ID)
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Stage != "parse" {
		t.Fatalf("spans = %+v", got[0].Spans)
	}
	if got[0].Spans[0].Duration <= 0 || got[0].Duration <= 0 {
		t.Fatal("durations must be positive")
	}
	if got := tr.Last(2); len(got) != 2 || got[0].ID != 5 {
		t.Fatalf("Last(2) = %d traces, first id %d", len(got), got[0].ID)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(8)
	trace := tr.Start("bob", "FOR //compliance/row RETURN AVG(//rate)")
	trace.Record("fanout", "hospitalA", time.Now(), 0, OutcomeTimeout)
	trace.Finish(RefusedOutcome("timeout"))

	rec := httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?last=2", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var out []struct {
		Requester string `json:"requester"`
		Outcome   string `json:"outcome"`
		Spans     []Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad json: %v\n%s", err, rec.Body.String())
	}
	if len(out) != 1 || out[0].Requester != "bob" || out[0].Outcome != "refused:timeout" {
		t.Fatalf("traces = %+v", out)
	}
	if len(out[0].Spans) != 1 || out[0].Spans[0].Source != "hospitalA" {
		t.Fatalf("spans = %+v", out[0].Spans)
	}

	rec = httptest.NewRecorder()
	TraceHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?last=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad last: status %d, want 400", rec.Code)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("piye_h_total").Add(9)
	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "piye_h_total 9") {
		t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
}
