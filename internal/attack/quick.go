package attack

import (
	"fmt"
	"math"

	"privateiye/internal/nlp"
)

// QuickBounds computes closed-form per-cell bounds using only the
// per-attribute constraints (mean and sigma), ignoring the per-party
// means. The m hidden values of one attribute lie on the intersection of a
// hyperplane (known sum) and a sphere (known sum of squared deviations),
// and a coordinate on that (m-2)-sphere spans
//
//	centroid ± r * sqrt((m-1)/m).
//
// These bounds are looser than Infer's — they drop constraints — but cost
// O(attrs) instead of a nonlinear solve, so the audit layer uses them as a
// first screen: if even QuickBounds shows no disclosure above threshold,
// the expensive Infer is skipped.
func (k *Knowledge) QuickBounds() ([][]nlp.Interval, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	attrs := len(k.AttrMean)
	parties := len(k.PartyMean)
	m := float64(parties - 1) // hidden values per attribute
	if k.OwnIndex == -1 {
		m = float64(parties) // outsider: every value is hidden
	}

	out := make([][]nlp.Interval, parties)
	for h := range out {
		out[h] = make([]nlp.Interval, attrs)
	}
	for t, v := range k.OwnRow {
		out[k.OwnIndex][t] = nlp.Interval{Lo: v, Hi: v}
	}

	for t := 0; t < attrs; t++ {
		// Worst-case over the tolerance band: widest when sigma is at the
		// top of its band and the mean at either end.
		mu := k.AttrMean[t]
		sigma := k.AttrSigma[t] + k.Tolerance
		divisor := float64(parties)
		if k.SampleSigma {
			divisor = float64(parties - 1)
		}
		// Total squared deviation about the mean.
		total := sigma * sigma * divisor
		// The snooper's own deviation uses the least favourable mean in
		// the band (minimizing its own share leaves more spread for the
		// hidden values). Outsiders contribute no known value.
		own := 0.0
		rem := total
		if k.OwnIndex >= 0 {
			own = k.OwnRow[t]
			ownDev := math.Abs(own - mu)
			ownDev = math.Max(0, ownDev-k.Tolerance)
			rem = total - ownDev*ownDev
			if rem < 0 {
				return nil, fmt.Errorf("attack: attribute %d: own value inconsistent with published sigma", t)
			}
		}
		// Hidden sum: parties*mu - own, with mean tolerance.
		sumLo := float64(parties)*(mu-k.Tolerance) - own
		sumHi := float64(parties)*(mu+k.Tolerance) - own
		// rem is deviation about the overall mean; converting to deviation
		// about the hidden centroid only shrinks it, so rem is a valid
		// upper bound for the sphere radius^2.
		r := math.Sqrt(rem)
		coordSpread := r * math.Sqrt((m-1)/m)
		cLo := sumLo / m
		cHi := sumHi / m
		lo := math.Max(k.Lo, cLo-coordSpread)
		hi := math.Min(k.Hi, cHi+coordSpread)
		for _, h := range k.hiddenParties() {
			out[h][t] = nlp.Interval{Lo: lo, Hi: hi}
		}
	}
	return out, nil
}
