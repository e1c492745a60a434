// Package loss implements the Loss Computation module of Figure 2(a):
// the "reliable metrics for quantifying privacy loss" Section 4 calls
// for. Two measures are integrated: the R-U (risk-utility)
// confidentiality map of Duncan et al. [23], which positions candidate
// releases by disclosure risk against utility, and Sweeney's precision
// of a generalization, the information-loss side — how much utility a
// preservation technique destroyed. Both are in [0, 1].
package loss

import "fmt"

// RUPoint is one point on Duncan's R-U confidentiality map: disclosure
// Risk against data Utility, both in [0,1].
type RUPoint struct {
	Name    string
	Risk    float64
	Utility float64
}

// RUMap is a set of candidate releases (e.g. the same answer under
// different preservation techniques) positioned on the risk-utility plane.
type RUMap struct {
	Points []RUPoint
}

// Add appends a point after validation.
func (m *RUMap) Add(p RUPoint) error {
	if p.Risk < 0 || p.Risk > 1 || p.Utility < 0 || p.Utility > 1 {
		return fmt.Errorf("loss: R-U point %q out of range (%v, %v)", p.Name, p.Risk, p.Utility)
	}
	m.Points = append(m.Points, p)
	return nil
}

// Frontier returns the non-dominated points: no other point has both
// lower risk and higher-or-equal utility (or equal risk and strictly
// higher utility). These are the releases worth choosing among.
func (m *RUMap) Frontier() []RUPoint {
	var out []RUPoint
	for i, p := range m.Points {
		dominated := false
		for j, q := range m.Points {
			if i == j {
				continue
			}
			if (q.Risk < p.Risk && q.Utility >= p.Utility) ||
				(q.Risk == p.Risk && q.Utility > p.Utility) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// --- Information-loss metrics -------------------------------------------

// Precision is Sweeney's Prec metric for a generalization solution:
// 1 - average(level_i / maxLevel_i). Information loss is 1 - Precision.
func Precision(levels, depths []int) (float64, error) {
	if len(levels) != len(depths) || len(levels) == 0 {
		return 0, fmt.Errorf("loss: levels/depths mismatch %d/%d", len(levels), len(depths))
	}
	var acc float64
	for i := range levels {
		maxLevel := depths[i] - 1
		if maxLevel <= 0 {
			return 0, fmt.Errorf("loss: hierarchy %d has depth %d", i, depths[i])
		}
		if levels[i] < 0 || levels[i] > maxLevel {
			return 0, fmt.Errorf("loss: level %d out of [0,%d]", levels[i], maxLevel)
		}
		acc += float64(levels[i]) / float64(maxLevel)
	}
	return 1 - acc/float64(len(levels)), nil
}
