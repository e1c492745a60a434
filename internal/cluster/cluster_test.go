package cluster

import (
	"testing"

	"privateiye/internal/piql"
	"privateiye/internal/preserve"
)

func TestHeuristicBreach(t *testing.T) {
	cases := []struct {
		src  string
		want preserve.BreachClass
	}{
		{"FOR //patient RETURN //name, //diagnosis", preserve.BreachAttribute},
		{"FOR //patient RETURN //name, //zip", preserve.BreachIdentity},
		{"FOR //row GROUP BY //test RETURN AVG(//rate) AS a", preserve.BreachAggregateInference},
		{"FOR //patient WHERE //age > 40 RETURN //diagnosis", preserve.BreachLinkage},
		{"FOR //hmo RETURN //county", preserve.BreachNone},
		{"FOR //row RETURN COUNT(*)", preserve.BreachNone},
	}
	for _, tc := range cases {
		q := piql.MustParse(tc.src)
		if got := HeuristicBreach(q); got != tc.want {
			t.Errorf("HeuristicBreach(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestSyntheticWorkload(t *testing.T) {
	ex, err := SyntheticWorkload(70, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 70 {
		t.Fatalf("workload size = %d", len(ex))
	}
	// The workload must cover several breach classes.
	classes := map[preserve.BreachClass]int{}
	for _, e := range ex {
		classes[e.Breach]++
	}
	if len(classes) < 4 {
		t.Errorf("workload covers only %d classes: %v", len(classes), classes)
	}
	// Determinism.
	ex2, _ := SyntheticWorkload(70, 3)
	for i := range ex {
		if ex[i].Query.String() != ex2[i].Query.String() {
			t.Fatal("workload not deterministic")
		}
	}
}

// routingAccuracy is the share of examples Map sends to a cluster whose
// breach label matches the example's own.
func routingAccuracy(t *testing.T, kb *KB, examples []Example) float64 {
	t.Helper()
	hit := 0
	for _, ex := range examples {
		c, _, err := kb.Map(ex.Query)
		if err != nil {
			t.Fatal(err)
		}
		if c.Breach == ex.Breach {
			hit++
		}
	}
	return float64(hit) / float64(len(examples))
}

func TestBuildKMeansAndMap(t *testing.T) {
	train, err := SyntheticWorkload(210, 7)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := BuildKMeans(train, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(kb.Clusters) == 0 || len(kb.Clusters) > 8 {
		t.Fatalf("clusters = %d", len(kb.Clusters))
	}
	// Training accuracy must beat the majority-class baseline by a wide
	// margin: the feature space separates these templates cleanly.
	if acc := routingAccuracy(t, kb, train); acc < 0.9 {
		t.Errorf("training routing accuracy = %v, want >= 0.9", acc)
	}
	// Held-out queries from the same distribution route correctly too.
	test, _ := SyntheticWorkload(70, 999)
	if acc := routingAccuracy(t, kb, test); acc < 0.85 {
		t.Errorf("held-out routing accuracy = %v, want >= 0.85", acc)
	}
}

func TestBuildKMeansErrors(t *testing.T) {
	train, _ := SyntheticWorkload(5, 1)
	if _, err := BuildKMeans(train, 0, 1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := BuildKMeans(train, 10, 1); err == nil {
		t.Error("k>n should fail")
	}
}

func TestMapDistanceSignal(t *testing.T) {
	train, _ := SyntheticWorkload(105, 13)
	kb, err := BuildKMeans(train, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A training-like query maps close...
	near, dNear, err := kb.Map(train[0].Query)
	if err != nil || near == nil {
		t.Fatal(err)
	}
	// ...a pathological query (50 predicates) maps far.
	src := "FOR //patient WHERE //age > 1"
	for i := 0; i < 50; i++ {
		src += " AND //age > 1"
	}
	src += " RETURN //name"
	far := piql.MustParse(src)
	_, dFar, err := kb.Map(far)
	if err != nil {
		t.Fatal(err)
	}
	if dFar <= dNear {
		t.Errorf("distance signal inverted: near %v, far %v", dNear, dFar)
	}
}

func TestMapEmptyKB(t *testing.T) {
	kb := &KB{}
	if _, _, err := kb.Map(piql.MustParse("FOR //x RETURN //y")); err == nil {
		t.Error("empty KB should error")
	}
}

func TestClusterSizesSumToTraining(t *testing.T) {
	train, _ := SyntheticWorkload(84, 17)
	kb, err := BuildKMeans(train, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range kb.Clusters {
		if c.Size <= 0 {
			t.Errorf("cluster %d has size %d", c.ID, c.Size)
		}
		total += c.Size
	}
	if total != len(train) {
		t.Errorf("cluster sizes sum to %d, want %d", total, len(train))
	}
}
