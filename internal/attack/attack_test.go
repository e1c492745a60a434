package attack

import (
	"math"
	"testing"

	"privateiye/internal/clinical"
)

// paperIntervals are the nine intervals of Figure 1(d), [party][attr],
// parties HMO2..HMO4.
var paperIntervals = [3][3][2]float64{
	{{87.2, 88.5}, {58.6, 59.8}, {46.8, 47.9}}, // HMO2
	{{82.8, 86.4}, {48.1, 52.3}, {44.5, 47.2}}, // HMO3
	{{82.9, 86.7}, {48.6, 53.1}, {44.5, 47.4}}, // HMO4
}

func figure1Knowledge() *Knowledge {
	k := FromPublished(clinical.Figure1Published(), 0, clinical.Figure1HMO1Row())
	// Calibrated effective tolerance of the paper's own solver (see
	// EXPERIMENTS.md E4).
	k.Tolerance = 0.025
	return k
}

func TestValidate(t *testing.T) {
	good := figure1Knowledge()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid knowledge rejected: %v", err)
	}
	cases := []func(*Knowledge){
		func(k *Knowledge) { k.AttrMean = nil },
		func(k *Knowledge) { k.AttrSigma = k.AttrSigma[:1] },
		func(k *Knowledge) { k.OwnRow = k.OwnRow[:1] },
		func(k *Knowledge) { k.PartyMean = k.PartyMean[:1] },
		func(k *Knowledge) { k.OwnIndex = 9 },
		func(k *Knowledge) { k.Hi = k.Lo },
		func(k *Knowledge) { k.Tolerance = -1 },
	}
	for i, mut := range cases {
		k := figure1Knowledge()
		mut(k)
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// The headline reproduction: the attack regenerates Figure 1(d). Every
// bound must land within 0.5 percentage points of the paper's, and every
// paper interval must be (approximately) contained in ours — the attack
// may be slightly conservative but must not claim impossible tightness.
func TestFigure1dIntervalsMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-heavy")
	}
	k := figure1Knowledge()
	inf, err := k.Infer(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		for a := 0; a < 3; a++ {
			got := inf.Intervals[h+1][a]
			want := paperIntervals[h][a]
			if math.Abs(got.Lo-want[0]) > 0.5 || math.Abs(got.Hi-want[1]) > 0.5 {
				t.Errorf("HMO%d attr %d: got [%.1f, %.1f], paper [%.1f, %.1f]",
					h+2, a, got.Lo, got.Hi, want[0], want[1])
			}
			if got.Lo > want[0]+0.5 || got.Hi < want[1]-0.5 {
				t.Errorf("HMO%d attr %d: our interval [%.1f, %.1f] excludes part of the paper's [%.1f, %.1f]",
					h+2, a, got.Lo, got.Hi, want[0], want[1])
			}
		}
	}
	// The hidden ground truth must be inside every inferred interval
	// (soundness of the attack).
	gt := clinical.Figure1GroundTruth()
	for h := 1; h < 4; h++ {
		for a := 0; a < 3; a++ {
			iv := inf.Intervals[h][a]
			if gt[h][a] < iv.Lo-0.05 || gt[h][a] > iv.Hi+0.05 {
				t.Errorf("ground truth %v outside inferred [%v, %v] for HMO%d attr %d",
					gt[h][a], iv.Lo, iv.Hi, h+1, a)
			}
		}
	}
}

func TestInferOwnRowExact(t *testing.T) {
	k := figure1Knowledge()
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	own := clinical.Figure1HMO1Row()
	for a, v := range own {
		iv := inf.Intervals[0][a]
		if iv.Lo != v || iv.Hi != v {
			t.Errorf("own cell %d = [%v,%v], want pinned at %v", a, iv.Lo, iv.Hi, v)
		}
	}
	if inf.Parties != 4 || inf.Attrs != 3 {
		t.Errorf("shape = %dx%d", inf.Parties, inf.Attrs)
	}
}

func TestDisclosureMeasures(t *testing.T) {
	k := figure1Knowledge()
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's whole point: aggregates narrow hidden cells drastically.
	// The widest paper interval is ~5 points out of a 100-point prior, so
	// disclosure should be at least 0.9 everywhere hidden.
	for h := 1; h < 4; h++ {
		for a := 0; a < 3; a++ {
			if d := inf.Disclosure(h, a); d < 0.9 {
				t.Errorf("disclosure(%d,%d) = %v, want >= 0.9", h, a, d)
			}
		}
	}
	if md := inf.MaxDisclosure(); md < 0.95 {
		t.Errorf("max disclosure = %v, want >= 0.95", md)
	}
	// Every hidden cell breaches at threshold 0.9; none at threshold
	// above 1.
	if got := len(inf.Breaches(0.9)); got != 9 {
		t.Errorf("breaches(0.9) = %d, want 9", got)
	}
	if got := len(inf.Breaches(1.1)); got != 0 {
		t.Errorf("breaches(1.1) = %d, want 0", got)
	}
}

func TestInferInfeasibleAggregates(t *testing.T) {
	k := figure1Knowledge()
	// A published sigma impossible to reconcile with the snooper's own
	// row: own deviates from the mean by 8 points but sigma says total
	// spread is only 1.
	k.AttrSigma = []float64{0.1, 0.1, 0.1}
	k.Tolerance = 0.001
	if _, err := k.Infer(FastOptions()); err == nil {
		t.Error("impossible aggregates should fail to converge")
	}
}

func TestQuickBoundsLooserButSound(t *testing.T) {
	k := figure1Knowledge()
	quick, err := k.QuickBounds()
	if err != nil {
		t.Fatal(err)
	}
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h < 4; h++ {
		for a := 0; a < 3; a++ {
			q, full := quick[h][a], inf.Intervals[h][a]
			// Quick bounds drop constraints, so they must contain the full
			// solution (small numeric slack allowed).
			if q.Lo > full.Lo+0.3 || q.Hi < full.Hi-0.3 {
				t.Errorf("cell (%d,%d): quick [%v,%v] does not contain full [%v,%v]",
					h, a, q.Lo, q.Hi, full.Lo, full.Hi)
			}
		}
	}
}

func TestQuickBoundsGroundTruthInside(t *testing.T) {
	k := figure1Knowledge()
	k.Tolerance = 0.05 // full rounding band
	quick, err := k.QuickBounds()
	if err != nil {
		t.Fatal(err)
	}
	gt := clinical.Figure1GroundTruth()
	for h := 1; h < 4; h++ {
		for a := 0; a < 3; a++ {
			iv := quick[h][a]
			if gt[h][a] < iv.Lo || gt[h][a] > iv.Hi {
				t.Errorf("ground truth %v outside quick bounds [%v,%v] at (%d,%d)",
					gt[h][a], iv.Lo, iv.Hi, h, a)
			}
		}
	}
}

func TestQuickBoundsInconsistentOwnRow(t *testing.T) {
	k := figure1Knowledge()
	k.OwnRow = []float64{5, 56, 43} // 78 points below the mean, sigma 5.7
	if _, err := k.QuickBounds(); err == nil {
		t.Error("own row inconsistent with sigma should error")
	}
}

// Generalization beyond 4x3: on a synthetic 6-HMO, 4-test matrix, the
// attack's intervals must always contain the hidden truth.
func TestInferSoundOnSyntheticMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-heavy")
	}
	g := clinical.NewGenerator(17)
	m := g.ComplianceMatrix(6, 4)
	pub, err := clinical.PublishFromMatrix(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := FromPublished(pub, 2, m[2])
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		if h == 2 {
			continue
		}
		for a := 0; a < 4; a++ {
			iv := inf.Intervals[h][a]
			if m[h][a] < iv.Lo-0.2 || m[h][a] > iv.Hi+0.2 {
				t.Errorf("hidden %v outside inferred [%v,%v] at (%d,%d)",
					m[h][a], iv.Lo, iv.Hi, h, a)
			}
		}
	}
}

// Outsider snooper: no own row, only the published aggregates. The
// intervals must still narrow substantially (the Figure 1 aggregates are
// that disclosive) while containing every party's true row.
func TestOutsiderAttack(t *testing.T) {
	pub := clinical.Figure1Published()
	k := &Knowledge{
		AttrMean:    pub.TestMean,
		AttrSigma:   pub.TestSigma,
		PartyMean:   pub.HMOMean,
		OwnIndex:    -1,
		Tolerance:   0.05,
		SampleSigma: true,
		Lo:          0,
		Hi:          100,
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// Outsider with an own row is invalid.
	bad := *k
	bad.OwnRow = []float64{1, 2, 3}
	if err := bad.Validate(); err == nil {
		t.Error("outsider with own row should be invalid")
	}

	bounds, err := k.QuickBounds()
	if err != nil {
		t.Fatal(err)
	}
	gt := clinical.Figure1GroundTruth()
	for h := 0; h < 4; h++ {
		for a := 0; a < 3; a++ {
			iv := bounds[h][a]
			if gt[h][a] < iv.Lo || gt[h][a] > iv.Hi {
				t.Errorf("truth %v outside outsider bounds [%v,%v] at (%d,%d)",
					gt[h][a], iv.Lo, iv.Hi, h, a)
			}
			if iv.Width() > 40 {
				t.Errorf("outsider bounds uselessly wide at (%d,%d): %v", h, a, iv.Width())
			}
		}
	}
	// The full solver is sound too.
	inf, err := k.Infer(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		for a := 0; a < 3; a++ {
			iv := inf.Intervals[h][a]
			if gt[h][a] < iv.Lo-0.2 || gt[h][a] > iv.Hi+0.2 {
				t.Errorf("truth %v outside inferred [%v,%v] at (%d,%d)", gt[h][a], iv.Lo, iv.Hi, h, a)
			}
		}
	}
}
