package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span outcomes. Per-stage outcomes reuse the refusal-reason vocabulary
// where one applies: "refused:<reason>" keeps the trace and the
// refusal-reason counters telling the same story.
const (
	OutcomeAnswered = "answered"
	OutcomeTimeout  = "timeout"
	OutcomeSkipped  = "skipped"
	OutcomeError    = "error"
)

// RefusedOutcome renders a refusal outcome for a span or trace:
// "refused:<reason>".
func RefusedOutcome(reason string) string { return "refused:" + reason }

// Span is one pipeline stage of one query: stage name, optional source
// (for per-source fan-out spans), duration and outcome.
type Span struct {
	Stage    string        `json:"stage"`
	Source   string        `json:"source,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Outcome  string        `json:"outcome"`
}

// Trace is the record of one query through the pipeline. All methods
// are safe on a nil *Trace (tracing disabled) and for concurrent use —
// fan-out spans are recorded from per-source goroutines.
type Trace struct {
	ID        uint64    `json:"id"`
	Requester string    `json:"requester"`
	Query     string    `json:"query"`
	Shard     string    `json:"shard,omitempty"`
	Begin     time.Time `json:"begin"`

	mu       sync.Mutex
	Spans    []Span        `json:"spans"`
	Duration time.Duration `json:"duration_ns"`
	Outcome  string        `json:"outcome"`

	tracer *Tracer
}

// SetShard stamps the trace with the shard that served the query, so a
// tier-wide trace search can attribute each query to its shard.
// Nil-safe; call before Finish.
func (t *Trace) SetShard(shard string) {
	if t == nil || shard == "" {
		return
	}
	t.mu.Lock()
	t.Shard = shard
	t.mu.Unlock()
}

// Record appends an already-timed span: instrumented components time a
// stage once and feed the same reading to their latency histogram and
// the trace. Nil-safe.
func (t *Trace) Record(stage, source string, start time.Time, d time.Duration, outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Spans = append(t.Spans, Span{Stage: stage, Source: source, Start: start, Duration: d, Outcome: outcome})
	t.mu.Unlock()
}

// Finish closes the trace with its overall outcome and publishes it to
// the tracer's ring buffer. Finish must be called exactly once.
func (t *Trace) Finish(outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Duration = time.Since(t.Begin)
	t.Outcome = outcome
	t.mu.Unlock()
	if t.tracer != nil {
		t.tracer.push(t)
	}
}

// snapshot returns a copy safe to serialize while new traces are being
// recorded. The trace itself is finished (immutable) by the time it is
// in the ring, but copying keeps the reader decoupled anyway.
func (t *Trace) snapshot() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{
		ID:        t.ID,
		Requester: t.Requester,
		Query:     t.Query,
		Shard:     t.Shard,
		Begin:     t.Begin,
		Spans:     append([]Span(nil), t.Spans...),
		Duration:  t.Duration,
		Outcome:   t.Outcome,
	}
}

// Tracer hands out per-query traces and keeps the last Capacity
// finished ones in a ring buffer for /debug/trace. A nil *Tracer is
// valid and disables tracing.
type Tracer struct {
	next atomic.Uint64

	mu   sync.Mutex
	ring []*Trace // ring[next%cap] is the oldest slot
	n    uint64   // finished traces ever pushed
}

// DefaultTraceRing is the default ring capacity.
const DefaultTraceRing = 64

// NewTracer returns a tracer keeping the last capacity finished traces
// (DefaultTraceRing when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &Tracer{ring: make([]*Trace, capacity)}
}

// Start begins a trace for one query. Returns nil (a valid no-op trace)
// on a nil tracer.
func (tr *Tracer) Start(requester, query string) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{
		ID:        tr.next.Add(1),
		Requester: requester,
		Query:     query,
		Begin:     time.Now(),
		// Pre-size for a typical pipeline (7 mediator stages + a few
		// source spans) so recording spans does not regrow the slice.
		Spans:  make([]Span, 0, 8),
		tracer: tr,
	}
}

func (tr *Tracer) push(t *Trace) {
	tr.mu.Lock()
	tr.ring[tr.n%uint64(len(tr.ring))] = t
	tr.n++
	tr.mu.Unlock()
}

// Last returns up to n most recent finished traces, newest first.
func (tr *Tracer) Last(n int) []*Trace {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	capN := uint64(len(tr.ring))
	have := tr.n
	if have > capN {
		have = capN
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]*Trace, 0, have)
	for i := uint64(0); i < have; i++ {
		t := tr.ring[(tr.n-1-i)%capN]
		out = append(out, t.snapshot())
	}
	return out
}
