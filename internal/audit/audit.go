// Package audit guards against inference from *sequences* of queries —
// the paper's hardest open problem ("even if we ensure that the results of
// a given query do not violate privacy policies ... how do we ensure that
// a set of query results cannot be combined together to violate data
// privacy?", Section 4). It implements the two classical statistical-
// database controls the paper cites and a full linear-algebraic audit:
//
//   - query-set-size control: aggregate queries over fewer than k
//     individuals are refused outright;
//   - overlap control (Dobkin, Jones, Lipton [21]): consecutive aggregate
//     query sets may share at most r individuals, blocking the classic
//     tracker construction;
//   - exact auditing (Chin, Ozsoyoglu [13]): answered sum queries form a
//     linear system over individual values; a new query is refused if
//     answering it would make any single individual's value determined
//     (a unit vector enters the row space).
//
// An Auditor tracks one requester; the Log keys auditors by requester so
// colluding identities can also be merged into one auditor.
package audit

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"privateiye/internal/refusal"
)

// Refusal explains why a query was refused; it satisfies error.
type Refusal struct {
	Rule   string // "set-size", "overlap", "compromise"
	Detail string
}

// Error implements error.
func (r *Refusal) Error() string {
	return fmt.Sprintf("audit: refused by %s control: %s", r.Rule, r.Detail)
}

// RefusalReason implements refusal.Reasoner: each audit rule maps to a
// stable enum value so refusal counters label by rule, not by message.
func (r *Refusal) RefusalReason() refusal.Reason {
	switch r.Rule {
	case "set-size":
		return refusal.AuditSetSize
	case "overlap":
		return refusal.AuditOverlap
	case "compromise":
		return refusal.AuditCompromise
	}
	return refusal.Other
}

// Config parameterizes an Auditor.
type Config struct {
	// Population is the number of individuals in the protected table.
	Population int
	// MinSetSize is the query-set-size lower bound k (0 disables).
	MinSetSize int
	// MaxOverlap is the maximum allowed overlap r with any previously
	// answered query set (negative disables; 0 means disjoint sets only).
	MaxOverlap int
	// Exact enables the linear-system compromise audit.
	Exact bool
}

// Auditor tracks the aggregate queries answered to one requester.
type Auditor struct {
	mu      sync.Mutex
	cfg     Config
	sets    [][]int     // answered query sets (sorted indices)
	rref    [][]float64 // reduced row echelon form of answered rows
	refused int
	granted int
	// persist, when set by a persistent Log, durably records a granted
	// set before it takes effect; commits fail closed on persist errors.
	persist func(set []int) error
}

// NewAuditor validates the configuration and returns an auditor.
func NewAuditor(cfg Config) (*Auditor, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("audit: population %d", cfg.Population)
	}
	if cfg.MinSetSize > cfg.Population {
		return nil, fmt.Errorf("audit: min set size %d exceeds population %d", cfg.MinSetSize, cfg.Population)
	}
	return &Auditor{cfg: cfg}, nil
}

// Check decides whether a sum/avg-style aggregate over the given
// individual indices may be answered, WITHOUT recording it. A nil return
// means the query is safe; otherwise the *Refusal explains the rule.
//
// Check is advisory only: the decision can be invalidated by a commit
// that races in between. The query path must use CheckAndCommit, which
// holds the lock across both steps.
func (a *Auditor) Check(set []int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.checkLocked(set)
}

func (a *Auditor) checkLocked(set []int) error {
	clean, err := a.normalize(set)
	if err != nil {
		return err
	}
	if a.cfg.MinSetSize > 0 && len(clean) < a.cfg.MinSetSize {
		return &Refusal{
			Rule:   "set-size",
			Detail: fmt.Sprintf("query set has %d individuals, minimum is %d", len(clean), a.cfg.MinSetSize),
		}
	}
	// Symmetric protection: a query covering all but fewer than k
	// individuals reveals the small complement by subtraction from the
	// population total.
	if a.cfg.MinSetSize > 0 && a.cfg.Population-len(clean) < a.cfg.MinSetSize && len(clean) < a.cfg.Population {
		return &Refusal{
			Rule:   "set-size",
			Detail: fmt.Sprintf("complement has only %d individuals", a.cfg.Population-len(clean)),
		}
	}
	if a.cfg.MaxOverlap >= 0 {
		for _, prev := range a.sets {
			if ov := overlap(clean, prev); ov > a.cfg.MaxOverlap {
				return &Refusal{
					Rule:   "overlap",
					Detail: fmt.Sprintf("overlaps a previous query in %d individuals, maximum is %d", ov, a.cfg.MaxOverlap),
				}
			}
		}
	}
	if a.cfg.Exact {
		if i, comp := a.wouldCompromise(clean); comp {
			return &Refusal{
				Rule:   "compromise",
				Detail: fmt.Sprintf("answering would determine individual %d exactly", i),
			}
		}
	}
	return nil
}

// CheckAndCommit atomically decides and records: the controls run and
// the set is committed under one lock acquisition, so two concurrent
// queries for the same requester can never both pass the check before
// either records — the separately-locked Check-then-Commit idiom left
// exactly that window. When the auditor is persistent, the grant is
// durably logged before it takes effect; a persistence failure refuses
// the query (the disclosure must never outrun its record).
func (a *Auditor) CheckAndCommit(set []int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkLocked(set); err != nil {
		a.refused++
		return err
	}
	clean, _ := a.normalize(set)
	if a.persist != nil {
		if err := a.persist(clean); err != nil {
			a.refused++
			return fmt.Errorf("audit: refusing unrecordable release: %w", err)
		}
	}
	a.commitLocked(clean)
	return nil
}

// Commit records a query as answered; it is CheckAndCommit under its
// historical name, kept for callers that only ever commit.
func (a *Auditor) Commit(set []int) error { return a.CheckAndCommit(set) }

// commitLocked appends an already-normalized, already-checked set.
func (a *Auditor) commitLocked(clean []int) {
	a.sets = append(a.sets, clean)
	a.addRow(charVector(clean, a.cfg.Population))
	a.granted++
}

// restore replays a previously granted set without re-running the
// controls: it was checked when first answered, and the information is
// out regardless — refusing to remember it would only disarm the
// auditor. Range errors still fail: state from a different population
// cannot be reconstructed meaningfully.
func (a *Auditor) restore(set []int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	clean, err := a.normalize(set)
	if err != nil {
		return err
	}
	a.commitLocked(clean)
	return nil
}

// Stats reports how many queries were granted and refused.
func (a *Auditor) Stats() (granted, refused int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.granted, a.refused
}

// normalize sorts, deduplicates and range-checks a query set.
func (a *Auditor) normalize(set []int) ([]int, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("audit: empty query set")
	}
	clean := append([]int(nil), set...)
	sort.Ints(clean)
	out := clean[:0]
	prev := -1
	for _, v := range clean {
		if v < 0 || v >= a.cfg.Population {
			return nil, fmt.Errorf("audit: individual %d out of population [0,%d)", v, a.cfg.Population)
		}
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out, nil
}

func overlap(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func charVector(set []int, n int) []float64 {
	v := make([]float64, n)
	for _, i := range set {
		v[i] = 1
	}
	return v
}

const eps = 1e-9

// addRow folds a new answered-query row into the maintained RREF.
func (a *Auditor) addRow(row []float64) {
	r := append([]float64(nil), row...)
	for _, pivotRow := range a.rref {
		p := pivotCol(pivotRow)
		if p < 0 {
			continue
		}
		if math.Abs(r[p]) > eps {
			factor := r[p] / pivotRow[p]
			for c := range r {
				r[c] -= factor * pivotRow[c]
			}
		}
	}
	p := pivotCol(r)
	if p < 0 {
		return // linearly dependent; adds nothing
	}
	// Normalize and back-substitute into existing rows.
	lead := r[p]
	for c := range r {
		r[c] /= lead
	}
	for _, pivotRow := range a.rref {
		if math.Abs(pivotRow[p]) > eps {
			factor := pivotRow[p]
			for c := range pivotRow {
				pivotRow[c] -= factor * r[c]
			}
		}
	}
	a.rref = append(a.rref, r)
}

func pivotCol(row []float64) int {
	for c, v := range row {
		if math.Abs(v) > eps {
			return c
		}
	}
	return -1
}

// wouldCompromise reports whether adding the query set to the answered
// system would put some unit vector e_i into the row space — i.e. the
// requester could solve for individual i's exact value. Because the RREF
// basis is canonical, e_i is in the span iff some RREF row has exactly one
// non-negligible entry.
func (a *Auditor) wouldCompromise(set []int) (int, bool) {
	// Work on a copy of the RREF extended with the candidate row.
	trial := &Auditor{cfg: a.cfg}
	trial.rref = make([][]float64, len(a.rref))
	for i, r := range a.rref {
		trial.rref[i] = append([]float64(nil), r...)
	}
	trial.addRow(charVector(set, a.cfg.Population))
	for _, row := range trial.rref {
		nz, col := 0, -1
		for c, v := range row {
			if math.Abs(v) > eps {
				nz++
				col = c
				if nz > 1 {
					break
				}
			}
		}
		if nz == 1 {
			return col, true
		}
	}
	return -1, false
}

// Log is the per-requester auditor registry: the Query History box of
// Figure 2(b).
type Log struct {
	mu       sync.Mutex
	cfg      Config
	auditors map[string]*Auditor
	// p, when non-nil, durably records every grant (see persist.go).
	p *persister
}

// NewLog returns a registry creating auditors with the given config.
func NewLog(cfg Config) (*Log, error) {
	if _, err := NewAuditor(cfg); err != nil {
		return nil, err
	}
	return &Log{cfg: cfg, auditors: map[string]*Auditor{}}, nil
}

// For returns (creating if needed) the auditor for a requester.
func (l *Log) For(requester string) *Auditor {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.auditors[requester]
	if !ok {
		a, _ = NewAuditor(l.cfg)
		if l.p != nil {
			a.persist = l.p.hook(requester)
		}
		l.auditors[requester] = a
	}
	return a
}

// Merge folds the histories of several requesters into one auditor under
// the merged name — the defence when identities are suspected to collude.
// The fold itself is not persisted (the constituent grants already are);
// after a restart the merge must be re-applied.
func (l *Log) Merge(merged string, requesters ...string) *Auditor {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, _ := NewAuditor(l.cfg)
	if l.p != nil {
		m.persist = l.p.hook(merged)
	}
	for _, r := range requesters {
		if a, ok := l.auditors[r]; ok {
			a.mu.Lock()
			for _, s := range a.sets {
				m.sets = append(m.sets, s)
				m.addRow(charVector(s, m.cfg.Population))
				m.granted++
			}
			a.mu.Unlock()
		}
	}
	l.auditors[merged] = m
	return m
}
