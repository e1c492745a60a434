package main

// The probe times each layer from outside, at its public entry points:
// HTTP middleware around the router, mediator and source handlers, a
// source.Endpoint decorator around each mediator-side client, and a
// transport wrapper on the router's outbound client. It records nothing
// until tracing is switched on, so untraced runs pay one atomic load per
// hop. Spans stay in memory until the run ends.

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// opHeader carries an op id to the sources on calls that have no
// X-Requester (the PSI routes).
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary. Spans of one op share
// its id: the per-op requester every hop carries in X-Requester, or the
// context value an Overlap call carries.
type span struct {
	layer    string // op | shard.serve | mediator.serve | mediator.overlap | source.call | source.serve
	node     string // the shard or source a serve or call span belongs to
	id       string
	method   string // query | psi_blind | psi_exp, on source spans
	start    int64  // ns since the probe's epoch
	end      int64
	reqBytes int64 // request body bytes, on serve spans
	bytes    int64 // response body bytes, on serve spans
}

func (s span) dur() int64 { return s.end - s.start }

type probe struct {
	epoch    time.Time
	on       atomic.Bool
	attempts atomic.Int64 // router -> shard /query attempts while tracing

	mu    sync.Mutex
	spans []span
}

func newProbe() *probe { return &probe{epoch: time.Now()} }

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

func (p *probe) record(s span) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// take returns and clears the recorded spans.
func (p *probe) take() []span {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.spans
	p.spans = nil
	return out
}

// tracedRoute reports whether a request is one an op causes (the rest
// are health probes, schema refreshes and scrapes).
func tracedRoute(r *http.Request) (method string, ok bool) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/query":
		return "query", true
	case r.URL.Path == "/psi/blinded":
		return "psi_blind", true
	case r.URL.Path == "/psi/exponentiate":
		return "psi_exp", true
	}
	return "", false
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// serve wraps node's handler in timing middleware for layer.
func (p *probe) serve(layer, node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		method, ok := tracedRoute(r)
		if !ok || !p.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get("X-Requester")
		if id == "" {
			id = r.Header.Get(opHeader)
		}
		cw := &countingWriter{ResponseWriter: w}
		start := p.now()
		next.ServeHTTP(cw, r)
		in := r.ContentLength
		if in < 0 {
			in = 0
		}
		p.record(span{layer: layer, node: node, id: id, method: method, start: start, end: p.now(), reqBytes: in, bytes: cw.n})
	})
}

type opKey struct{}

// withOp tags ctx with an op id for the spans below a direct Overlap call.
func withOp(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, opKey{}, id)
}

func opID(ctx context.Context) string {
	id, _ := ctx.Value(opKey{}).(string)
	return id
}

// timedEndpoint is a source.Endpoint decorator recording one source.call
// span per query or PSI call, as the mediator sees it.
type timedEndpoint struct {
	source.Endpoint
	probe *probe
}

func (e *timedEndpoint) call(id, method string, fn func() (*xmltree.Node, error)) (*xmltree.Node, error) {
	if !e.probe.on.Load() {
		return fn()
	}
	start := e.probe.now()
	n, err := fn()
	e.probe.record(span{layer: "source.call", node: e.Name(), id: id, method: method, start: start, end: e.probe.now()})
	return n, err
}

func (e *timedEndpoint) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	return e.call(requester, "query", func() (*xmltree.Node, error) {
		return e.Endpoint.Query(ctx, piqlText, requester)
	})
}

func (e *timedEndpoint) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	return e.call(opID(ctx), "psi_blind", func() (*xmltree.Node, error) {
		return e.Endpoint.PSIBlinded(ctx, field, suite)
	})
}

func (e *timedEndpoint) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	return e.call(opID(ctx), "psi_exp", func() (*xmltree.Node, error) {
		return e.Endpoint.PSIExponentiate(ctx, elems)
	})
}

// opHeaderTransport forwards the context's op id to the source.
type opHeaderTransport struct{ next http.RoundTripper }

func (t opHeaderTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := opID(r.Context()); id != "" {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, id)
	}
	return t.next.RoundTrip(r)
}

// attemptCounter counts the router's /query attempts on shards.
type attemptCounter struct {
	next  http.RoundTripper
	probe *probe
}

func (t attemptCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/query") && t.probe.on.Load() {
		t.probe.attempts.Add(1)
	}
	return t.next.RoundTrip(r)
}
