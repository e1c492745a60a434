package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privateiye/internal/schemamatch"
	"privateiye/internal/source"
	"privateiye/internal/xmltree"
)

// ErrInjected marks a fault produced by the Chaos wrapper, so tests can
// tell injected failures from real ones.
var ErrInjected = errors.New("injected fault")

// ChaosConfig is a deterministic fault schedule. Per-call decisions are
// pure functions of (Seed, call number), so a run's fault pattern is
// reproducible regardless of goroutine scheduling.
type ChaosConfig struct {
	// Seed drives the error and latency streams (default 1).
	Seed uint64
	// Latency is added to every successful call.
	Latency time.Duration
	// LatencyJitter adds a seeded uniform [0, J) on top of Latency.
	LatencyJitter time.Duration
	// ErrorRate is the probability in [0, 1] that a call fails with
	// ErrInjected.
	ErrorRate float64
	// FlapEvery alternates the source between up and down every
	// FlapEvery calls (0 = no flapping): calls 1..N succeed, N+1..2N
	// fail, and so on.
	FlapEvery int
}

// Chaos wraps an Endpoint with the configured fault schedule plus two
// runtime switches (SetDown, SetHang). It also counts dials: every call
// that reaches the wrapper increments the counter, so a test can verify
// that an open circuit breaker really stopped dialing. It replaces the
// ad-hoc flaky test doubles and powers the E17 experiment.
type Chaos struct {
	inner source.Endpoint
	cfg   ChaosConfig
	calls atomic.Int64

	mu   sync.Mutex
	down bool
	hang bool
}

// NewChaos wraps inner with the fault schedule.
func NewChaos(inner source.Endpoint, cfg ChaosConfig) *Chaos {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Chaos{inner: inner, cfg: cfg}
}

// Calls returns how many calls reached this wrapper (the dial counter).
func (c *Chaos) Calls() int { return int(c.calls.Load()) }

// SetDown makes every call fail with ErrInjected (a dead node).
func (c *Chaos) SetDown(down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = down
}

// SetHang makes every call block until its context is done (a wedged
// node — the failure mode a plain error path never exercises).
func (c *Chaos) SetHang(hang bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hang = hang
}

// inject applies the fault schedule to call number n and returns the
// injected error, or nil to let the call through.
func (c *Chaos) inject(ctx context.Context) error {
	n := c.calls.Add(1)
	c.mu.Lock()
	down, hang := c.down, c.hang
	c.mu.Unlock()
	if hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if c.cfg.FlapEvery > 0 && ((n-1)/int64(c.cfg.FlapEvery))%2 == 1 {
		down = true
	}
	if down {
		return fmt.Errorf("source %s: %w", c.inner.Name(), ErrInjected)
	}
	if c.cfg.ErrorRate > 0 {
		u := float64(splitmix64(c.cfg.Seed^uint64(n))>>11) / float64(1<<53)
		if u < c.cfg.ErrorRate {
			return fmt.Errorf("source %s: %w", c.inner.Name(), ErrInjected)
		}
	}
	if d := c.delay(n); d > 0 {
		if err := sleep(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

func (c *Chaos) delay(n int64) time.Duration {
	d := c.cfg.Latency
	if c.cfg.LatencyJitter > 0 {
		// Offset the stream so latency draws are independent of the
		// error draws for the same call.
		u := float64(splitmix64(c.cfg.Seed^uint64(n)^0x9e3779b9)>>11) / float64(1<<53)
		d += time.Duration(u * float64(c.cfg.LatencyJitter))
	}
	return d
}

// Name implements source.Endpoint.
func (c *Chaos) Name() string { return c.inner.Name() }

// FetchSummary implements source.Endpoint.
func (c *Chaos) FetchSummary(ctx context.Context) (*xmltree.Summary, error) {
	if err := c.inject(ctx); err != nil {
		return nil, err
	}
	return c.inner.FetchSummary(ctx)
}

// FetchProfiles implements source.Endpoint.
func (c *Chaos) FetchProfiles(ctx context.Context) ([]schemamatch.FieldProfile, error) {
	if err := c.inject(ctx); err != nil {
		return nil, err
	}
	return c.inner.FetchProfiles(ctx)
}

// Query implements source.Endpoint.
func (c *Chaos) Query(ctx context.Context, piqlText, requester string) (*xmltree.Node, error) {
	if err := c.inject(ctx); err != nil {
		return nil, err
	}
	return c.inner.Query(ctx, piqlText, requester)
}

// PSISuites implements source.Endpoint.
func (c *Chaos) PSISuites(ctx context.Context) ([]string, error) {
	if err := c.inject(ctx); err != nil {
		return nil, err
	}
	return c.inner.PSISuites(ctx)
}

// PSIBlinded implements source.Endpoint.
func (c *Chaos) PSIBlinded(ctx context.Context, field, suite string) (*xmltree.Node, error) {
	if err := c.inject(ctx); err != nil {
		return nil, err
	}
	return c.inner.PSIBlinded(ctx, field, suite)
}

// PSIExponentiate implements source.Endpoint.
func (c *Chaos) PSIExponentiate(ctx context.Context, elems *xmltree.Node) (*xmltree.Node, error) {
	if err := c.inject(ctx); err != nil {
		return nil, err
	}
	return c.inner.PSIExponentiate(ctx, elems)
}

// Interface check.
var _ source.Endpoint = (*Chaos)(nil)
