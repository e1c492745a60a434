package loss

import (
	"math"
	"testing"
)

func TestRUMapFrontier(t *testing.T) {
	var m RUMap
	pts := []RUPoint{
		{"raw", 0.9, 1.0},
		{"rounded", 0.5, 0.8},
		{"noisy", 0.5, 0.6}, // dominated by rounded
		{"suppressed", 0.1, 0.3},
		{"useless", 0.2, 0.1}, // dominated by suppressed
	}
	for _, p := range pts {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	fr := m.Frontier()
	names := map[string]bool{}
	for _, p := range fr {
		names[p.Name] = true
	}
	if !names["raw"] || !names["rounded"] || !names["suppressed"] {
		t.Errorf("frontier = %v", fr)
	}
	if names["noisy"] || names["useless"] {
		t.Errorf("dominated points on frontier: %v", fr)
	}
	if err := m.Add(RUPoint{"bad", 2, 0}); err == nil {
		t.Error("out-of-range point should fail")
	}
}

func TestPrecision(t *testing.T) {
	// Three hierarchies of depth 5 (max level 4); levels 0,2,4 ->
	// Prec = 1 - (0 + 0.5 + 1)/3 = 0.5.
	v, err := Precision([]int{0, 2, 4}, []int{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 1e-12 {
		t.Errorf("precision = %v, want 0.5", v)
	}
	if v, _ := Precision([]int{0, 0}, []int{5, 5}); v != 1 {
		t.Error("no generalization should be precision 1")
	}
	for _, bad := range []struct {
		l, d []int
	}{
		{[]int{1}, []int{1, 2}},
		{nil, nil},
		{[]int{1}, []int{1}},
		{[]int{5}, []int{5}},
		{[]int{-1}, []int{5}},
	} {
		if _, err := Precision(bad.l, bad.d); err == nil {
			t.Errorf("Precision(%v,%v) should error", bad.l, bad.d)
		}
	}
}
