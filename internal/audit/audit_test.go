package audit

import (
	"errors"
	"testing"
)

func mustAuditor(t *testing.T, cfg Config) *Auditor {
	t.Helper()
	a, err := NewAuditor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewAuditor(Config{Population: 0}); err == nil {
		t.Error("zero population should fail")
	}
	if _, err := NewAuditor(Config{Population: 5, MinSetSize: 10}); err == nil {
		t.Error("min set size beyond population should fail")
	}
	if _, err := NewLog(Config{Population: 0}); err == nil {
		t.Error("log with bad config should fail")
	}
}

func TestSetSizeControl(t *testing.T) {
	a := mustAuditor(t, Config{Population: 100, MinSetSize: 5, MaxOverlap: -1})
	if err := a.Check([]int{1, 2, 3}); err == nil {
		t.Error("undersized set should be refused")
	} else {
		var r *Refusal
		if !errors.As(err, &r) || r.Rule != "set-size" {
			t.Errorf("wrong refusal: %v", err)
		}
	}
	if err := a.Check([]int{1, 2, 3, 4, 5}); err != nil {
		t.Errorf("size-5 set should pass: %v", err)
	}
	// Complement attack: sum over 97 of 100 reveals the other 3 via the
	// population total.
	big := make([]int, 97)
	for i := range big {
		big[i] = i
	}
	if err := a.Check(big); err == nil {
		t.Error("near-complete set should be refused (complement attack)")
	}
	// The full population is fine (no complement).
	all := make([]int, 100)
	for i := range all {
		all[i] = i
	}
	if err := a.Check(all); err != nil {
		t.Errorf("full population should pass: %v", err)
	}
}

func TestOverlapControl(t *testing.T) {
	a := mustAuditor(t, Config{Population: 50, MinSetSize: 3, MaxOverlap: 1})
	if err := a.Commit([]int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Overlap 2 with the committed set: refused.
	if err := a.Check([]int{3, 4, 5, 6}); err == nil {
		t.Error("overlap 2 should be refused")
	}
	// Overlap 1: allowed.
	if err := a.Check([]int{4, 10, 11, 12}); err != nil {
		t.Errorf("overlap 1 should pass: %v", err)
	}
	// Duplicates in input are collapsed before counting.
	if err := a.Check([]int{4, 4, 10, 11, 12}); err != nil {
		t.Errorf("duplicate indices should collapse: %v", err)
	}
}

func TestDobkinJonesLiptonTrackerBlocked(t *testing.T) {
	// The classic tracker: with set size k and overlaps r, a chain of
	// queries isolates a victim. Overlap control must stop the chain.
	a := mustAuditor(t, Config{Population: 30, MinSetSize: 4, MaxOverlap: 1})
	// The attacker wants individual 0. Sum{0..3} then Sum{1..4} etc. all
	// overlap in 3 elements: every step after the first is refused.
	if err := a.Commit([]int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, q := range [][]int{{1, 2, 3, 4}, {0, 1, 2, 4}, {0, 2, 3, 4}} {
		if err := a.Check(q); err != nil {
			blocked++
		}
	}
	if blocked != 3 {
		t.Errorf("tracker steps blocked = %d, want 3", blocked)
	}
}

func TestExactAuditCompromise(t *testing.T) {
	// No overlap restriction: only the exact audit protects.
	a := mustAuditor(t, Config{Population: 10, MinSetSize: 2, MaxOverlap: -1, Exact: true})
	// Sum{0,1,2} and Sum{1,2} differ by exactly individual 0.
	if err := a.Commit([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	err := a.Check([]int{1, 2})
	if err == nil {
		t.Fatal("difference attack should be refused")
	}
	var r *Refusal
	if !errors.As(err, &r) || r.Rule != "compromise" {
		t.Errorf("wrong refusal: %v", err)
	}
	// An unrelated query is fine.
	if err := a.Check([]int{5, 6, 7}); err != nil {
		t.Errorf("independent query should pass: %v", err)
	}
}

func TestExactAuditLinearCombination(t *testing.T) {
	// Subtler than pairwise difference: {0,1} + {2,3} - {1,2,3} isolates
	// individual 0 via three queries. Pairwise overlaps are small; only
	// the linear-system audit catches it.
	a := mustAuditor(t, Config{Population: 10, MinSetSize: 2, MaxOverlap: -1, Exact: true})
	if err := a.Commit([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit([]int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := a.Check([]int{1, 2, 3}); err == nil {
		t.Error("three-query linear combination should be refused")
	}
}

func TestExactAuditAllowsSafeSequences(t *testing.T) {
	a := mustAuditor(t, Config{Population: 20, MinSetSize: 2, MaxOverlap: -1, Exact: true})
	// A chain of pairwise-overlapping queries that never pins an
	// individual: {0,1},{1,2},{2,3},... determines only differences.
	for i := 0; i+2 < 20; i += 1 {
		set := []int{i, i + 1}
		if i >= 1 {
			// Committing {i,i+1} after {i-1,i} gives x_{i+1} - x_{i-1}:
			// still no individual. All should pass.
		}
		if err := a.Commit(set); err != nil {
			t.Fatalf("safe chain refused at %d: %v", i, err)
		}
	}
	granted, refused := a.Stats()
	if granted != 18 || refused != 0 {
		t.Errorf("stats = %d granted %d refused", granted, refused)
	}
}

func TestCommitRechecks(t *testing.T) {
	a := mustAuditor(t, Config{Population: 10, MinSetSize: 5, MaxOverlap: -1})
	if err := a.Commit([]int{0, 1}); err == nil {
		t.Error("commit must re-check")
	}
	granted, refused := a.Stats()
	if granted != 0 || refused != 1 {
		t.Errorf("stats after refused commit: %d/%d", granted, refused)
	}
}

func TestNormalizeErrors(t *testing.T) {
	a := mustAuditor(t, Config{Population: 10})
	if err := a.Check(nil); err == nil {
		t.Error("empty set should fail")
	}
	if err := a.Check([]int{-1}); err == nil {
		t.Error("negative index should fail")
	}
	if err := a.Check([]int{10}); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestLogPerRequesterIsolation(t *testing.T) {
	l, err := NewLog(Config{Population: 20, MinSetSize: 2, MaxOverlap: 0})
	if err != nil {
		t.Fatal(err)
	}
	alice := l.For("alice")
	bob := l.For("bob")
	if alice == bob {
		t.Fatal("requesters must get distinct auditors")
	}
	if err := alice.Commit([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Bob's history is empty: the same query passes for him.
	if err := bob.Check([]int{1, 2, 3}); err != nil {
		t.Errorf("bob should be unaffected by alice: %v", err)
	}
	// Alice herself is now blocked by overlap.
	if err := alice.Check([]int{1, 2, 3}); err == nil {
		t.Error("alice should be blocked by her own history")
	}
	// Same name returns the same auditor.
	if l.For("alice") != alice {
		t.Error("For should be stable")
	}
}

func TestLogMergeCatchesCollusion(t *testing.T) {
	l, err := NewLog(Config{Population: 10, MinSetSize: 2, MaxOverlap: -1, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	// Alice and Bob split the difference attack between them.
	if err := l.For("alice").Commit([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.For("bob").Commit([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Individually neither is compromised, but the merged history shows
	// individual 0 is determined: a fresh query revealing any individual
	// must be refused, and in fact the merged RREF already contains e_0.
	merged := l.Merge("alice+bob", "alice", "bob")
	if _, comp := merged.wouldCompromise([]int{5, 6}); !comp {
		t.Error("merged history should already expose a determined individual")
	}
}
