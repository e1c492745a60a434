package preserve

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"privateiye/internal/piql"
	"privateiye/internal/stats"
)

func sampleResult() *piql.Result {
	return &piql.Result{
		Columns: []string{"name", "age", "zip", "diagnosis", "rate"},
		Rows: [][]string{
			{"Alice Ang", "54", "15213", "diabetes", "75.31"},
			{"Bob Baker", "45", "15217", "asthma", "62.77"},
			{"Cara Diaz", "35", "15232", "diabetes", "81.02"},
			{"Dan Evans", "62", "15213", "influenza", "58.4"},
		},
	}
}

func TestHierarchies(t *testing.T) {
	age := AgeHierarchy()
	cases := []struct {
		level int
		in    string
		want  string
	}{
		{0, "54", "54"},
		{1, "54", "50-54"},
		{2, "54", "50-59"},
		{3, "54", "40-59"},
		{4, "54", "*"},
		{2, "notanumber", "*"},
		{-1, "54", "54"}, // clamps low
		{99, "54", "*"},  // clamps high
	}
	for _, tc := range cases {
		if got := age.Apply(tc.in, tc.level); got != tc.want {
			t.Errorf("age@%d(%q) = %q, want %q", tc.level, tc.in, got, tc.want)
		}
	}
	zip := ZipHierarchy()
	for level, want := range map[int]string{0: "15213", 1: "1521*", 2: "152**", 3: "15***", 4: "*"} {
		if got := zip.Apply("15213", level); got != want {
			t.Errorf("zip@%d = %q, want %q", level, got, want)
		}
	}
	if got := zip.Apply("9", 1); got != "*" {
		t.Errorf("short zip = %q", got)
	}
	diag := DiagnosisHierarchy()
	if got := diag.Apply("diabetes", 1); got != "metabolic" {
		t.Errorf("diagnosis parent = %q", got)
	}
	if got := diag.Apply("unknown-disease", 1); got != "*" {
		t.Errorf("unknown diagnosis = %q", got)
	}
	if got := SexHierarchy().Apply("F", 1); got != "*" {
		t.Errorf("sex@1 = %q", got)
	}
}

func TestSuppressAndDropColumns(t *testing.T) {
	res := sampleResult()
	sup, err := SuppressColumns{Columns: []string{"name", "missing"}}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sup.Rows[0][0] != "*" {
		t.Errorf("suppressed cell = %q", sup.Rows[0][0])
	}
	if res.Rows[0][0] != "Alice Ang" {
		t.Error("input mutated")
	}
	if len(sup.Columns) != 5 {
		t.Error("suppress must keep the column")
	}

	dropped, err := DropColumns{Columns: []string{"name"}}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped.Columns) != 4 || dropped.Columns[0] != "age" {
		t.Errorf("dropped columns = %v", dropped.Columns)
	}
	if len(dropped.Rows[0]) != 4 {
		t.Errorf("row width = %d", len(dropped.Rows[0]))
	}
}

func TestGeneralizeTechnique(t *testing.T) {
	res := sampleResult()
	g, err := Generalize{Column: "zip", Hierarchy: ZipHierarchy(), Level: 2}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows[0][2] != "152**" {
		t.Errorf("generalized zip = %q", g.Rows[0][2])
	}
	// Missing column is a no-op, not an error.
	if _, err := (Generalize{Column: "zzz", Hierarchy: ZipHierarchy(), Level: 2}).Apply(res, nil); err != nil {
		t.Errorf("missing column: %v", err)
	}
}

func TestRoundNumeric(t *testing.T) {
	res := sampleResult()
	r, err := RoundNumeric{Column: "rate", Places: 0}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][4] != "75" || r.Rows[3][4] != "58" {
		t.Errorf("rounded rates: %v %v", r.Rows[0][4], r.Rows[3][4])
	}
	// Non-numeric cells survive untouched.
	res.Rows[0][4] = "n/a"
	r, _ = RoundNumeric{Column: "rate", Places: 0}.Apply(res, nil)
	if r.Rows[0][4] != "n/a" {
		t.Errorf("non-numeric cell = %q", r.Rows[0][4])
	}
}

func TestAdditiveNoise(t *testing.T) {
	res := sampleResult()
	rng := stats.NewRand(42)
	n, err := AdditiveNoise{Column: "rate", Sigma: 1.0}.Apply(res, rng)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range n.Rows {
		if n.Rows[i][4] != res.Rows[i][4] {
			changed++
		}
		orig, _ := strconv.ParseFloat(res.Rows[i][4], 64)
		noisy, _ := strconv.ParseFloat(n.Rows[i][4], 64)
		if math.Abs(noisy-orig) > 6 { // 6 sigma
			t.Errorf("noise too large: %v -> %v", orig, noisy)
		}
	}
	if changed < 3 {
		t.Errorf("noise changed only %d rows", changed)
	}
	if _, err := (AdditiveNoise{Column: "rate", Sigma: 1}).Apply(res, nil); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := (AdditiveNoise{Column: "rate", Sigma: -1}).Apply(res, rng); err == nil {
		t.Error("negative sigma should fail")
	}
	// Laplace variant has the configured standard deviation.
	big := &piql.Result{Columns: []string{"v"}}
	for i := 0; i < 20000; i++ {
		big.Rows = append(big.Rows, []string{"100"})
	}
	l, err := AdditiveNoise{Column: "v", Sigma: 2, Laplace: true}.Apply(big, stats.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(l.Rows))
	for i, row := range l.Rows {
		vals[i], _ = strconv.ParseFloat(row[0], 64)
	}
	sd, _ := stats.StdDev(vals)
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("laplace noise sd = %v, want 2", sd)
	}
}

func TestRandomSample(t *testing.T) {
	big := &piql.Result{Columns: []string{"v"}}
	for i := 0; i < 10000; i++ {
		big.Rows = append(big.Rows, []string{strconv.Itoa(i)})
	}
	s, err := RandomSample{P: 0.3}.Apply(big, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) < 2700 || len(s.Rows) > 3300 {
		t.Errorf("sample size = %d, want about 3000", len(s.Rows))
	}
	if _, err := (RandomSample{P: 1.5}).Apply(big, stats.NewRand(1)); err == nil {
		t.Error("bad probability should fail")
	}
	if _, err := (RandomSample{P: 0.5}).Apply(big, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestSmallCountSuppress(t *testing.T) {
	res := &piql.Result{
		Columns: []string{"diagnosis", "n", "avg_rate"},
		Rows: [][]string{
			{"diabetes", "12", "70.1"},
			{"rare-disease", "2", "55.0"},
			{"asthma", "5", "61.3"},
		},
	}
	s, err := SmallCountSuppress{CountColumn: "n", Threshold: 3}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(s.Rows))
	}
	for _, row := range s.Rows {
		if row[0] == "rare-disease" {
			t.Error("small group survived")
		}
	}
	// Missing count column: pass-through.
	p, _ := SmallCountSuppress{CountColumn: "zz", Threshold: 3}.Apply(res, nil)
	if len(p.Rows) != 3 {
		t.Error("missing count column should pass rows through")
	}
}

func TestMicroaggregate(t *testing.T) {
	res := &piql.Result{
		Columns: []string{"id", "rate"},
		Rows: [][]string{
			{"a", "10"}, {"b", "20"}, {"c", "30"}, {"d", "40"}, {"e", "50"},
		},
	}
	m, err := Microaggregate{Column: "rate", K: 2}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Groups after sort: {10,20}->15, {30,40,50 merged}: the trailing
	// fragment {50} merges with {30,40} -> mean 40.
	want := map[string]string{"a": "15", "b": "15", "c": "40", "d": "40", "e": "40"}
	for _, row := range m.Rows {
		if row[1] != want[row[0]] {
			t.Errorf("microagg %s = %q, want %q", row[0], row[1], want[row[0]])
		}
	}
	// Mean is preserved exactly.
	var origSum, newSum float64
	for i := range res.Rows {
		o, _ := strconv.ParseFloat(res.Rows[i][1], 64)
		n, _ := strconv.ParseFloat(m.Rows[i][1], 64)
		origSum += o
		newSum += n
	}
	if math.Abs(origSum-newSum) > 1e-9 {
		t.Errorf("microaggregation changed the sum: %v vs %v", origSum, newSum)
	}
	if _, err := (Microaggregate{Column: "rate", K: 1}).Apply(res, nil); err == nil {
		t.Error("k<2 should fail")
	}
	// Every group has >= K members.
	counts := map[string]int{}
	for _, row := range m.Rows {
		counts[row[1]]++
	}
	for v, c := range counts {
		if c < 2 {
			t.Errorf("group %q has %d members, want >= 2", v, c)
		}
	}
}

func TestPipelineAndIdentity(t *testing.T) {
	res := sampleResult()
	p := Pipeline{Steps: []Technique{
		DropColumns{Columns: []string{"name"}},
		Generalize{Column: "age", Hierarchy: AgeHierarchy(), Level: 2},
	}}
	out, err := p.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Columns) != 4 || out.Rows[0][0] != "50-59" {
		t.Errorf("pipeline output: %v %v", out.Columns, out.Rows[0])
	}
	if !strings.Contains(p.Name(), "drop(name)") {
		t.Errorf("pipeline name = %q", p.Name())
	}

	id, err := Identity{}.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	id.Rows[0][0] = "tamper"
	if res.Rows[0][0] == "tamper" {
		t.Error("Identity must return a copy")
	}

	// Pipeline propagates step errors with context.
	bad := Pipeline{Steps: []Technique{RandomSample{P: 0.5}}}
	if _, err := bad.Apply(res, nil); err == nil || !strings.Contains(err.Error(), "sample") {
		t.Errorf("pipeline error context: %v", err)
	}
	// Empty pipeline still returns a copy.
	empty, _ := Pipeline{}.Apply(res, nil)
	empty.Rows[0][0] = "tamper2"
	if res.Rows[0][0] == "tamper2" {
		t.Error("empty pipeline must copy")
	}
}

func TestRegistry(t *testing.T) {
	r := DefaultRegistry()
	if got := r.For(BreachNone).Name(); got != "identity" {
		t.Errorf("none -> %q", got)
	}
	if got := r.For(BreachIdentity).Name(); !strings.Contains(got, "drop") {
		t.Errorf("identity breach -> %q", got)
	}
	// Applying the identity-breach pipeline removes names.
	out, err := r.For(BreachIdentity).Apply(sampleResult(), stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Columns {
		if c == "name" {
			t.Error("name column survived identity mitigation")
		}
	}
	// Replacement.
	r.Register(BreachIdentity, Identity{})
	if got := r.For(BreachIdentity).Name(); got != "identity" {
		t.Errorf("replacement failed: %q", got)
	}
	// Class names are distinct and stable.
	seen := map[string]bool{}
	for _, b := range []BreachClass{
		BreachNone, BreachIdentity, BreachAttribute,
		BreachAggregateInference, BreachLinkage, BreachSequence,
	} {
		if seen[b.String()] {
			t.Errorf("duplicate class name %q", b)
		}
		seen[b.String()] = true
	}
}
