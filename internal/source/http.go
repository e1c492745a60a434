package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"privateiye/internal/admission"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/psi"
	"privateiye/internal/schemamatch"
	"privateiye/internal/xmltree"
)

// The HTTP transport makes a source a standalone node (cmd/piye-source).
// Every payload is the same XML that flows in-process, so the mediator
// treats local and remote sources identically.

// NewHandler exposes a Local endpoint over HTTP. Handlers pass the
// request context down, so a client that gives up (or a server shutdown
// drain) cancels the work.
func NewHandler(l *Local) http.Handler {
	mux := http.NewServeMux()

	writeNode := func(w http.ResponseWriter, n *xmltree.Node) {
		w.Header().Set("Content-Type", "application/xml")
		if err := n.Encode(w); err != nil {
			// Headers are already sent; nothing more to do.
			return
		}
	}
	fail := func(w http.ResponseWriter, code int, err error) {
		http.Error(w, err.Error(), code)
	}

	mux.HandleFunc("GET /summary", func(w http.ResponseWriter, r *http.Request) {
		sum, err := l.FetchSummary(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		writeNode(w, sum.ToNode())
	})

	mux.HandleFunc("GET /profiles", func(w http.ResponseWriter, r *http.Request) {
		ps, err := l.FetchProfiles(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		writeNode(w, schemamatch.ProfilesToNode(ps))
	})

	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		requester := r.Header.Get("X-Requester")
		if requester == "" {
			fail(w, http.StatusBadRequest, fmt.Errorf("source: missing X-Requester header"))
			return
		}
		node, err := l.Query(r.Context(), string(body), requester)
		if err != nil {
			// Admission sheds are 429/503 with Retry-After — the caller
			// should back off, not conclude it was forbidden.
			if WriteShed(w, err) {
				return
			}
			// Policy denials and audit refusals are forbidden, not broken.
			fail(w, http.StatusForbidden, err)
			return
		}
		writeNode(w, node)
	})

	mux.HandleFunc("POST /preferences", func(w http.ResponseWriter, r *http.Request) {
		node, err := readNode(r.Body)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		pol, err := policy.PolicyFromNode(node)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		if err := l.Src.AddPreference(pol); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /psi/suites", func(w http.ResponseWriter, r *http.Request) {
		suites, err := l.PSISuites(r.Context())
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		writeNode(w, suitesToNode(suites))
	})

	mux.HandleFunc("GET /psi/blinded", func(w http.ResponseWriter, r *http.Request) {
		field := r.URL.Query().Get("field")
		if field == "" {
			fail(w, http.StatusBadRequest, fmt.Errorf("source: missing field"))
			return
		}
		suite := r.URL.Query().Get("suite")
		if suite == "" {
			suite = l.advertised()[0]
		}
		if err := wireSuite(suite); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		node, err := l.PSIBlinded(r.Context(), field, suite)
		if err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
		writeNode(w, node)
	})

	mux.HandleFunc("POST /psi/exponentiate", func(w http.ResponseWriter, r *http.Request) {
		in, err := readNode(r.Body)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		suite := psi.WireSuiteName(in)
		if suite == "" {
			suite = l.modpSuiteName() // what PSIExponentiate reads a legacy envelope as
		}
		if err := wireSuite(suite); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		node, err := l.PSIExponentiate(r.Context(), in)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		writeNode(w, node)
	})

	// Liveness/readiness: a constructed Local has finished loading its
	// data and replaying any audit WAL, so reachable = ready.
	obs.AttachHealth(mux, nil)

	// /metrics and /debug/trace, when the source was built with a
	// registry or tracer.
	reg, tracer := l.Src.Observability()
	obs.Attach(mux, reg, tracer)

	return mux
}

// wireSuite refuses, over HTTP, every PSI suite below the strength
// floor: the 768-bit test group serves in-process tests only.
func wireSuite(name string) error {
	if !psi.MeetsFloor(name) {
		return fmt.Errorf("source: psi suite %q is below the modp2048/p256 floor and is not served over the wire", name)
	}
	return nil
}

func readNode(r io.Reader) (*xmltree.Node, error) {
	return xmltree.Parse(io.LimitReader(r, 16<<20))
}

// WriteShed writes a load-shed error as 429/503 with a Retry-After
// header and reports whether it did. Non-shed errors are left to the
// caller's normal error mapping. Shared by the source and mediator
// handlers so both daemons speak the same overload dialect.
func WriteShed(w http.ResponseWriter, err error) bool {
	var sh *admission.ShedError
	if !errors.As(err, &sh) {
		return false
	}
	secs := int(math.Ceil(sh.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, err.Error(), sh.HTTPStatus())
	return true
}

// parseRetryAfter reads a Retry-After header's delay-seconds form (the
// form this repo emits; the HTTP-date form is ignored).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// defaultTransport backs every default client. The stock
// http.DefaultTransport keeps only 2 idle connections per host
// (DefaultMaxIdleConnsPerHost), so a mediator fanning a query stream out
// to a handful of source nodes re-dials almost every call; under load
// that is a three-way handshake (and TLS, when terminated upstream) on
// the hot path. Raising the per-host idle pool to the mediator's
// realistic concurrency reuses connections instead.
var defaultTransport = newTunedTransport()

func newTunedTransport() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		t = &http.Transport{}
	}
	t = t.Clone() // keep proxy/dialer defaults; never mutate the global
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// defaultHTTPClient backs every Client whose HTTP field is nil. It has a
// generous overall timeout as a last line of defence; per-call deadlines
// come from the caller's context (the mediator's per-source deadline).
var defaultHTTPClient = &http.Client{
	Timeout:   30 * time.Second,
	Transport: defaultTransport,
}

// HTTPError is a non-200 response from a source node. It implements the
// optional Retryable interface the resilience layer looks for: server
// errors and throttling are transient, everything else (policy denials,
// bad requests, unimplemented endpoints) is permanent and must not be
// retried.
type HTTPError struct {
	Source string
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint on 429/503 responses
	// (zero when the header was absent or unparsable).
	RetryAfter time.Duration
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("source %s: %d %s: %s", e.Source, e.Status, http.StatusText(e.Status), e.Msg)
}

// Retryable reports whether retrying the call could help. 501 Not
// Implemented is permanent: the node will not grow the endpoint between
// attempts.
func (e *HTTPError) Retryable() bool {
	return (e.Status >= 500 && e.Status != http.StatusNotImplemented) ||
		e.Status == http.StatusTooManyRequests
}

// Shed reports whether the response was load shedding (throttling or
// saturation) rather than a failure: the circuit breaker ignores sheds,
// because a node answering 429/503 promptly is alive, not down.
func (e *HTTPError) Shed() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryAfterHint implements the resilience layer's pacing interface:
// the retry loop never sleeps less than the server asked for.
func (e *HTTPError) RetryAfterHint() (time.Duration, bool) {
	if e.RetryAfter > 0 {
		return e.RetryAfter, true
	}
	return 0, false
}

// Client is an Endpoint over HTTP.
type Client struct {
	// BaseURL is the source node's address, e.g. http://localhost:7101.
	BaseURL string
	// SourceName is the remote source's declared name.
	SourceName string
	// HTTP is the underlying client; a default with a 30s timeout is
	// used when nil.
	HTTP *http.Client
}

// NewClient returns a client endpoint.
func NewClient(baseURL, sourceName string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		SourceName: sourceName,
		HTTP:       defaultHTTPClient,
	}
}

// Name implements Endpoint.
func (c *Client) Name() string { return c.SourceName }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

func (c *Client) getNode(ctx context.Context, path string) (*xmltree.Node, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *Client) postNode(ctx context.Context, path, contentType string, body string) (*xmltree.Node, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.do(req)
}

func (c *Client) do(req *http.Request) (*xmltree.Node, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Surface a context deadline/cancellation undecorated so the
		// mediator can classify the denial as a timeout.
		if ctxErr := req.Context().Err(); ctxErr != nil {
			return nil, fmt.Errorf("source %s: %w", c.SourceName, ctxErr)
		}
		return nil, fmt.Errorf("source %s: %w", c.SourceName, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, &HTTPError{
			Source:     c.SourceName,
			Status:     resp.StatusCode,
			Msg:        strings.TrimSpace(string(msg)),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return readNode(resp.Body)
}

// FetchSummary implements Endpoint.
func (c *Client) FetchSummary(ctx context.Context) (*xmltree.Summary, error) {
	n, err := c.getNode(ctx, "/summary")
	if err != nil {
		return nil, err
	}
	return xmltree.SummaryFromNode(n), nil
}

// FetchProfiles implements Endpoint.
func (c *Client) FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error) {
	n, err := c.getNode(ctx, "/profiles")
	if err != nil {
		return nil, err
	}
	return schemamatch.ProfilesFromNode(n)
}

// Query implements Endpoint.
func (c *Client) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/query", strings.NewReader(piqlText))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Requester", requester)
	return c.do(req)
}

// suitesToNode encodes a suite advertisement:
//
//	<psi-suites><s>p256</s><s>modp2048</s></psi-suites>
func suitesToNode(suites []string) *xmltree.Node {
	root := xmltree.NewElem("psi-suites")
	for _, s := range suites {
		root.Append(xmltree.NewText("s", s))
	}
	return root
}

// suitesFromNode decodes a suite advertisement.
func suitesFromNode(n *xmltree.Node) ([]string, error) {
	if n.Name != "psi-suites" {
		return nil, fmt.Errorf("source: expected <psi-suites>, got <%s>", n.Name)
	}
	var out []string
	for _, c := range n.ChildrenNamed("s") {
		if c.Text != "" {
			out = append(out, c.Text)
		}
	}
	return out, nil
}

// PSISuites implements Endpoint. Nodes predating suite negotiation have
// no /psi/suites route; their 404/405/501 answers mean "MODP-2048
// only", the suite every deployment supported before negotiation
// existed — the fail-closed floor, not an error.
func (c *Client) PSISuites(ctx context.Context) ([]string, error) {
	n, err := c.getNode(ctx, "/psi/suites")
	if err != nil {
		var he *HTTPError
		if errors.As(err, &he) {
			switch he.Status {
			case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
				return []string{psi.SuiteNameModP2048}, nil
			}
		}
		return nil, err
	}
	return suitesFromNode(n)
}

// PSIBlinded implements Endpoint.
func (c *Client) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	path := "/psi/blinded?field=" + url.QueryEscape(field)
	if suite != "" {
		path += "&suite=" + url.QueryEscape(suite)
	}
	return c.getNode(ctx, path)
}

// PSIExponentiate implements Endpoint.
func (c *Client) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	return c.postNode(ctx, "/psi/exponentiate", "application/xml", elems.String())
}

// Interface checks.
var (
	_ Endpoint = (*Local)(nil)
	_ Endpoint = (*Client)(nil)
)
