package nlp

import "fmt"

// Interval is a closed numeric interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// CoordinateInterval computes the feasible interval of coordinate i over
// the constraint set of p (p.Objective is ignored): it minimizes and
// maximizes x[i] subject to p's constraints via multi-start. This is
// exactly the snooping computation of Figure 1(d): the tightest bounds an
// adversary can place on one hidden value given published aggregates.
func CoordinateInterval(p *Problem, i int, opt Options) (Interval, error) {
	if i < 0 || i >= p.Dim {
		return Interval{}, fmt.Errorf("nlp: coordinate %d out of range [0,%d)", i, p.Dim)
	}
	minP := *p
	minP.Objective = func(x []float64) float64 { return x[i] }
	lo, err := MultiStart(&minP, opt)
	if err != nil {
		return Interval{}, err
	}
	maxP := *p
	maxP.Objective = func(x []float64) float64 { return -x[i] }
	hi, err := MultiStart(&maxP, opt)
	if err != nil {
		return Interval{}, err
	}
	if !lo.Converged || !hi.Converged {
		return Interval{}, fmt.Errorf("nlp: coordinate %d: solver did not converge (violations %g, %g)",
			i, lo.MaxViolation, hi.MaxViolation)
	}
	return Interval{Lo: lo.X[i], Hi: hi.X[i]}, nil
}
