package nlp

import (
	"math"
	"testing"
)

func box(dim int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, dim)
	h := make([]float64, dim)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func TestValidate(t *testing.T) {
	lo, hi := box(2, 0, 1)
	cases := []*Problem{
		{Dim: 0, Objective: func(x []float64) float64 { return 0 }, Lower: lo, Upper: hi},
		{Dim: 2, Objective: nil, Lower: lo, Upper: hi},
		{Dim: 2, Objective: func(x []float64) float64 { return 0 }, Lower: lo[:1], Upper: hi},
		{Dim: 2, Objective: func(x []float64) float64 { return 0 }, Lower: []float64{2, 0}, Upper: []float64{1, 1}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	lo, hi := box(3, -10, 10)
	p := &Problem{
		Dim: 3,
		Objective: func(x []float64) float64 {
			return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2) + x[2]*x[2]
		},
		Lower: lo, Upper: hi,
	}
	sol, err := Minimize(p, []float64{5, 5, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0}
	for i := range want {
		if math.Abs(sol.X[i]-want[i]) > 1e-3 {
			t.Errorf("x[%d] = %v, want %v", i, sol.X[i], want[i])
		}
	}
}

func TestBoxBindingMinimum(t *testing.T) {
	// Unconstrained minimum at x=-5 but the box is [0,10]: expect 0.
	lo, hi := box(1, 0, 10)
	p := &Problem{
		Dim:       1,
		Objective: func(x []float64) float64 { return (x[0] + 5) * (x[0] + 5) },
		Lower:     lo, Upper: hi,
	}
	sol, err := Minimize(p, []float64{7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]) > 1e-6 {
		t.Errorf("x = %v, want 0 (box-bound)", sol.X[0])
	}
}

func TestEqualityConstrained(t *testing.T) {
	// min x^2 + y^2 s.t. x + y = 2 -> (1, 1).
	lo, hi := box(2, -10, 10)
	p := &Problem{
		Dim:        2,
		Objective:  func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
		Equalities: []Constraint{func(x []float64) float64 { return x[0] + x[1] - 2 }},
		Lower:      lo, Upper: hi,
	}
	sol, err := MultiStart(p, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("did not converge; violation %v", sol.MaxViolation)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(sol.X[i]-1) > 1e-2 {
			t.Errorf("x[%d] = %v, want 1", i, sol.X[i])
		}
	}
}

func TestInequalityConstrained(t *testing.T) {
	// min x s.t. x >= 3 (g = 3 - x <= 0) -> 3.
	lo, hi := box(1, -100, 100)
	p := &Problem{
		Dim:          1,
		Objective:    func(x []float64) float64 { return x[0] },
		Inequalities: []Constraint{func(x []float64) float64 { return 3 - x[0] }},
		Lower:        lo, Upper: hi,
	}
	sol, err := MultiStart(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[0]-3) > 1e-2 {
		t.Errorf("x = %v, want 3", sol.X[0])
	}
}

func TestNonConvexMultiStartFindsGlobal(t *testing.T) {
	// f(x) = (x^2 - 1)^2 + 0.1*x has minima near x = ±1; global is x ≈ -1.
	lo, hi := box(1, -2, 2)
	p := &Problem{
		Dim: 1,
		Objective: func(x []float64) float64 {
			v := x[0]*x[0] - 1
			return v*v + 0.1*x[0]
		},
		Lower: lo, Upper: hi,
	}
	sol, err := MultiStart(p, Options{Starts: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] > 0 {
		t.Errorf("multi-start stuck in local minimum: x = %v", sol.X[0])
	}
}

func TestCoordinateIntervalCircle(t *testing.T) {
	// Feasible set: x^2 + y^2 = 1 in box [-2,2]^2. Each coordinate spans
	// [-1, 1].
	lo, hi := box(2, -2, 2)
	p := &Problem{
		Dim:        2,
		Objective:  func(x []float64) float64 { return 0 },
		Equalities: []Constraint{func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] - 1 }},
		Lower:      lo, Upper: hi,
	}
	iv, err := CoordinateInterval(p, 0, Options{Starts: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Lo+1) > 0.02 || math.Abs(iv.Hi-1) > 0.02 {
		t.Errorf("interval = [%v, %v], want [-1, 1]", iv.Lo, iv.Hi)
	}
	if !iv.Contains(0) || iv.Contains(1.5) {
		t.Error("Contains misbehaves")
	}
	if math.Abs(iv.Width()-2) > 0.05 {
		t.Errorf("width = %v, want 2", iv.Width())
	}
}

func TestCoordinateIntervalLinearSystem(t *testing.T) {
	// x + y = 10, x - y = 2 -> unique point (6, 4); intervals collapse.
	lo, hi := box(2, 0, 100)
	p := &Problem{
		Dim:       2,
		Objective: func(x []float64) float64 { return 0 },
		Equalities: []Constraint{
			func(x []float64) float64 { return x[0] + x[1] - 10 },
			func(x []float64) float64 { return x[0] - x[1] - 2 },
		},
		Lower: lo, Upper: hi,
	}
	ivs := make([]Interval, p.Dim)
	for i := range ivs {
		iv, err := CoordinateInterval(p, i, Options{Starts: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ivs[i] = iv
	}
	if math.Abs(ivs[0].Lo-6) > 0.01 || math.Abs(ivs[0].Hi-6) > 0.01 {
		t.Errorf("x interval = %+v, want [6,6]", ivs[0])
	}
	if math.Abs(ivs[1].Lo-4) > 0.01 || math.Abs(ivs[1].Hi-4) > 0.01 {
		t.Errorf("y interval = %+v, want [4,4]", ivs[1])
	}
}

func TestCoordinateIntervalErrors(t *testing.T) {
	lo, hi := box(1, 0, 1)
	p := &Problem{Dim: 1, Objective: func(x []float64) float64 { return 0 }, Lower: lo, Upper: hi}
	if _, err := CoordinateInterval(p, 5, Options{}); err == nil {
		t.Error("out-of-range coordinate should error")
	}
	// Infeasible constraints: x = 0 and x = 1 simultaneously.
	p.Equalities = []Constraint{
		func(x []float64) float64 { return x[0] },
		func(x []float64) float64 { return x[0] - 1 },
	}
	if _, err := CoordinateInterval(p, 0, Options{MaxOuter: 5, Starts: 2}); err == nil {
		t.Error("infeasible problem should report non-convergence")
	}
}

func TestMinimizeBadInputs(t *testing.T) {
	lo, hi := box(2, 0, 1)
	p := &Problem{Dim: 2, Objective: func(x []float64) float64 { return 0 }, Lower: lo, Upper: hi}
	if _, err := Minimize(p, []float64{0}, Options{}); err == nil {
		t.Error("wrong x0 length should error")
	}
}

// The shape of the Figure 1 problem in miniature: 3 values with known sum
// and sum of squares; verify the feasible interval of one coordinate
// matches the analytic circle bounds.
func TestSumAndSigmaIntervalMatchesAnalytic(t *testing.T) {
	sum := 257.0
	sumsq := 22060.96
	lo, hi := box(3, 0, 100)
	p := &Problem{
		Dim:       3,
		Objective: func(x []float64) float64 { return 0 },
		Equalities: []Constraint{
			func(x []float64) float64 { return x[0] + x[1] + x[2] - sum },
			func(x []float64) float64 {
				return (x[0]*x[0] + x[1]*x[1] + x[2]*x[2] - sumsq) / 100 // scale for conditioning
			},
		},
		Lower: lo, Upper: hi,
	}
	iv, err := CoordinateInterval(p, 0, Options{Starts: 40, Seed: 13, MaxInner: 400, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: on the circle with centroid c = sum/3 and radius
	// r = sqrt(sumsq - sum^2/3), a coordinate spans [c - r*sqrt(2/3), c + r*sqrt(2/3)]
	// when the box is not binding.
	c := sum / 3
	r := math.Sqrt(sumsq - sum*sum/3)
	wantLo := c - r*math.Sqrt(2.0/3.0)
	wantHi := c + r*math.Sqrt(2.0/3.0)
	if math.Abs(iv.Lo-wantLo) > 0.2 || math.Abs(iv.Hi-wantHi) > 0.2 {
		t.Errorf("interval = [%.3f, %.3f], want [%.3f, %.3f]", iv.Lo, iv.Hi, wantLo, wantHi)
	}
}

// The parallel multi-start must return a bit-identical solution to the
// serial path: starts are drawn serially and merged in start order, so
// worker count cannot move Figure 1(d) intervals.
func TestMultiStartParallelBitIdenticalToSerial(t *testing.T) {
	p := &Problem{
		Dim:       3,
		Objective: func(x []float64) float64 { return x[0] },
		Equalities: []Constraint{
			func(x []float64) float64 { return x[0] + x[1] + x[2] - 150 },
		},
		Inequalities: []Constraint{
			func(x []float64) float64 { return 40 - x[1] },
		},
		Lower: []float64{0, 0, 0},
		Upper: []float64{100, 100, 100},
	}
	base := Options{Starts: 12, Seed: 7}

	serialOpt := base
	serialOpt.Workers = 1
	serial, err := MultiStart(p, serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		opt := base
		opt.Workers = w
		par, err := MultiStart(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if par.F != serial.F || par.MaxViolation != serial.MaxViolation || par.Converged != serial.Converged {
			t.Fatalf("workers=%d: solution header differs: %+v vs %+v", w, par, serial)
		}
		for i := range serial.X {
			if par.X[i] != serial.X[i] {
				t.Fatalf("workers=%d: X[%d] = %v, serial %v (must be bit-identical)", w, i, par.X[i], serial.X[i])
			}
		}
	}
}
