package anonymity

import (
	"strconv"
	"testing"
	"testing/quick"

	"privateiye/internal/clinical"
	"privateiye/internal/piql"
	"privateiye/internal/preserve"
)

func patientResult(t *testing.T, n int) *piql.Result {
	t.Helper()
	g := clinical.NewGenerator(23)
	tab, err := g.Patients("p", n, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := &piql.Result{Columns: []string{"age", "zip", "sex", "diagnosis"}}
	for _, row := range tab.Rows() {
		res.Rows = append(res.Rows, []string{
			row[3].String(), row[4].String(), row[2].String(), row[5].String(),
		})
	}
	return res
}

func standardConfig(k int) Config {
	return Config{
		K: k,
		QIs: []QuasiIdentifier{
			{Column: "age", Hierarchy: preserve.AgeHierarchy()},
			{Column: "zip", Hierarchy: preserve.ZipHierarchy()},
			{Column: "sex", Hierarchy: preserve.SexHierarchy()},
		},
		MaxSuppression: 0.05,
	}
}

func qiCols() []string { return []string{"age", "zip", "sex"} }

func TestValidate(t *testing.T) {
	res := patientResult(t, 50)
	bad := []Config{
		{K: 1, QIs: standardConfig(2).QIs},
		{K: 2},
		{K: 2, QIs: []QuasiIdentifier{{Column: "nope", Hierarchy: preserve.AgeHierarchy()}}},
		{K: 2, QIs: []QuasiIdentifier{{Column: "age"}}},
		{K: 2, QIs: standardConfig(2).QIs, MaxSuppression: 1.0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(res); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestSamaratiProducesKAnonymity(t *testing.T) {
	res := patientResult(t, 400)
	for _, k := range []int{2, 5, 10} {
		sol, err := Samarati(res, standardConfig(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ok, min, err := Verify(sol.Result, qiCols(), k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("k=%d: not anonymous, min class %d", k, min)
		}
		if sol.MinClassSize < k {
			t.Errorf("k=%d: reported min class %d", k, sol.MinClassSize)
		}
		if sol.Suppressed > int(0.05*float64(len(res.Rows))) {
			t.Errorf("k=%d: suppression %d over budget", k, sol.Suppressed)
		}
		if len(sol.Result.Rows)+sol.Suppressed != len(res.Rows) {
			t.Errorf("k=%d: rows don't add up", k)
		}
	}
}

func TestSamaratiMinimality(t *testing.T) {
	// With a crafted table that is already 2-anonymous, Samarati must
	// return height 0.
	res := &piql.Result{
		Columns: []string{"age", "zip", "sex"},
		Rows: [][]string{
			{"40", "15213", "F"}, {"40", "15213", "F"},
			{"50", "15217", "M"}, {"50", "15217", "M"},
		},
	}
	sol, err := Samarati(res, Config{K: 2, QIs: standardConfig(2).QIs})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Height() != 0 {
		t.Errorf("already-anonymous table generalized to height %d (levels %v)", sol.Height(), sol.Levels)
	}
	if sol.Suppressed != 0 {
		t.Errorf("suppressed %d rows needlessly", sol.Suppressed)
	}
}

func TestSamaratiBeatsOrMatchesDataflyHeight(t *testing.T) {
	res := patientResult(t, 300)
	cfg := standardConfig(5)
	s, err := Samarati(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Datafly(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Height() > d.Height() {
		t.Errorf("Samarati height %d worse than Datafly %d", s.Height(), d.Height())
	}
}

func TestDataflyProducesKAnonymity(t *testing.T) {
	res := patientResult(t, 400)
	for _, k := range []int{2, 5, 25} {
		sol, err := Datafly(res, standardConfig(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ok, min, _ := Verify(sol.Result, qiCols(), k)
		if !ok {
			t.Errorf("k=%d: not anonymous, min class %d", k, min)
		}
	}
}

func TestTooFewRows(t *testing.T) {
	res := patientResult(t, 3)
	if _, err := Samarati(res, standardConfig(5)); err == nil {
		t.Error("3 rows cannot be 5-anonymous")
	}
	if _, err := Datafly(res, standardConfig(5)); err == nil {
		t.Error("3 rows cannot be 5-anonymous (datafly)")
	}
}

func TestEmptyInput(t *testing.T) {
	res := &piql.Result{Columns: []string{"age", "zip", "sex"}}
	if _, err := Samarati(res, standardConfig(2)); err == nil {
		t.Error("empty input should error")
	}
}

func TestNoSuppressionBudget(t *testing.T) {
	// One outlier row forces full generalization when suppression is
	// forbidden, but with a 10% budget the outlier is just dropped.
	res := &piql.Result{
		Columns: []string{"age", "zip", "sex"},
		Rows: [][]string{
			{"40", "15213", "F"}, {"40", "15213", "F"},
			{"41", "15213", "F"}, {"41", "15213", "F"},
			{"42", "15213", "F"}, {"42", "15213", "F"},
			{"43", "15213", "F"}, {"43", "15213", "F"},
			{"44", "15213", "F"}, {"44", "15213", "F"},
			{"85", "15239", "M"},
		},
	}
	cfg := standardConfig(2)
	cfg.MaxSuppression = 0
	noSup, err := Samarati(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSuppression = 0.1
	withSup, err := Samarati(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withSup.Height() >= noSup.Height() {
		t.Errorf("suppression budget should reduce generalization: %d vs %d",
			withSup.Height(), noSup.Height())
	}
	if withSup.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", withSup.Suppressed)
	}
}

func TestVerifyErrors(t *testing.T) {
	res := patientResult(t, 10)
	if _, _, err := Verify(res, []string{"nope"}, 2); err == nil {
		t.Error("unknown column should error")
	}
	ok, min, err := Verify(&piql.Result{Columns: []string{"age"}}, []string{"age"}, 2)
	if err != nil || !ok || min != 0 {
		t.Errorf("empty result verify: %v %v %v", ok, min, err)
	}
}

func TestEnumerateNodes(t *testing.T) {
	var count int
	var nodes [][]int
	enumerateNodes([]int{2, 2}, 2, func(levels []int) {
		count++
		nodes = append(nodes, append([]int(nil), levels...))
	})
	// Vectors with sum 2 bounded by (2,2): (0,2),(1,1),(2,0).
	if count != 3 {
		t.Errorf("nodes at height 2 = %d (%v), want 3", count, nodes)
	}
	enumerateNodes([]int{1}, 5, func([]int) {
		t.Error("no nodes should exist beyond max height")
	})
}

// Property: for random small tables, whenever Samarati succeeds its output
// verifies k-anonymous and suppression stays within budget.
func TestSamaratiSoundnessProperty(t *testing.T) {
	cfg := standardConfig(3)
	f := func(seed uint16, size uint8) bool {
		n := 3 + int(size)%60
		g := clinical.NewGenerator(uint64(seed) + 1)
		tab, err := g.Patients("p", n, 3)
		if err != nil {
			return false
		}
		res := &piql.Result{Columns: []string{"age", "zip", "sex", "diagnosis"}}
		for _, row := range tab.Rows() {
			res.Rows = append(res.Rows, []string{
				row[3].String(), row[4].String(), row[2].String(), row[5].String(),
			})
		}
		sol, err := Samarati(res, cfg)
		if err != nil {
			return n < cfg.K // failure only acceptable for tiny tables
		}
		ok, _, err := Verify(sol.Result, qiCols(), cfg.K)
		if err != nil || !ok {
			return false
		}
		return sol.Suppressed <= int(cfg.MaxSuppression*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Information-utility sanity: higher k never shrinks the Samarati height.
func TestHeightMonotoneInK(t *testing.T) {
	res := patientResult(t, 200)
	prev := -1
	for _, k := range []int{2, 5, 10, 25} {
		sol, err := Samarati(res, standardConfig(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sol.Height() < prev {
			t.Errorf("height decreased from %d to %d at k=%d", prev, sol.Height(), k)
		}
		prev = sol.Height()
	}
	_ = strconv.Itoa(prev)
}

func TestTechniqueIntegratesWithRegistry(t *testing.T) {
	res := patientResult(t, 300)
	tech := Technique{Cfg: standardConfig(5)}
	out, err := tech.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, min, err := Verify(out, qiCols(), 5)
	if err != nil || !ok {
		t.Fatalf("technique output not 5-anonymous: min %d, %v", min, err)
	}
	// Routed through a registry like any other technique.
	reg := preserve.NewRegistry()
	reg.Register(preserve.BreachIdentity, tech)
	via, err := reg.For(preserve.BreachIdentity).Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(via.Rows) != len(out.Rows) {
		t.Errorf("registry routing changed the result: %d vs %d rows", len(via.Rows), len(out.Rows))
	}
	// Samarati variant also certifies.
	sam := Technique{Cfg: standardConfig(5), UseSamarati: true}
	if out, err := sam.Apply(res, nil); err != nil {
		t.Fatal(err)
	} else if ok, _, _ := Verify(out, qiCols(), 5); !ok {
		t.Error("samarati variant not anonymous")
	}
	if tech.Name() != "kanonymize(k=5,datafly)" || sam.Name() != "kanonymize(k=5,samarati)" {
		t.Errorf("names: %q %q", tech.Name(), sam.Name())
	}
}

func TestTechniqueEdgeCases(t *testing.T) {
	tech := Technique{Cfg: standardConfig(5)}
	// No QI columns present: pass-through copy.
	res := &piql.Result{Columns: []string{"rate"}, Rows: [][]string{{"70"}, {"80"}}}
	out, err := tech.Apply(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Rows[0][0] != "70" {
		t.Errorf("pass-through = %v", out.Rows)
	}
	out.Rows[0][0] = "tamper"
	if res.Rows[0][0] == "tamper" {
		t.Error("pass-through must copy")
	}
	// Fewer rows than k: everything suppressed, not an error.
	tiny := &piql.Result{Columns: []string{"age", "zip", "sex"}, Rows: [][]string{{"40", "15213", "F"}}}
	out, err = tech.Apply(tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 0 {
		t.Errorf("undersized input should suppress all rows: %v", out.Rows)
	}
	// Empty input passes through.
	empty := &piql.Result{Columns: []string{"age", "zip", "sex"}}
	if out, err := tech.Apply(empty, nil); err != nil || len(out.Rows) != 0 {
		t.Errorf("empty: %v %v", out, err)
	}
}
