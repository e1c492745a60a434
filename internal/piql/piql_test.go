package piql

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"privateiye/internal/xmltree"
)

const hospitalDoc = `
<hospital>
  <patient>
    <name>Alice Ang</name>
    <dob>1971-03-05</dob>
    <age>54</age>
    <diagnosis>diabetes</diagnosis>
    <visits><visit><cost>120.5</cost></visit><visit><cost>80</cost></visit></visits>
  </patient>
  <patient>
    <name>Bob Baker</name>
    <dob>1980-11-30</dob>
    <age>45</age>
    <diagnosis>asthma</diagnosis>
    <visits><visit><cost>60</cost></visit></visits>
  </patient>
  <patient>
    <name>Cara Diaz</name>
    <dob>1990-01-15</dob>
    <age>35</age>
    <diagnosis>diabetes</diagnosis>
    <visits><visit><cost>200</cost></visit></visits>
  </patient>
</hospital>`

func doc(t *testing.T) *xmltree.Node {
	t.Helper()
	n, err := xmltree.ParseString(hospitalDoc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParseBasic(t *testing.T) {
	q, err := Parse("FOR //patient WHERE //diagnosis = 'diabetes' RETURN //name, //age PURPOSE research MAXLOSS 0.3")
	if err != nil {
		t.Fatal(err)
	}
	if q.For.String() != "//patient" {
		t.Errorf("For = %q", q.For)
	}
	if q.Purpose != "research" || q.MaxLoss != 0.3 {
		t.Errorf("privacy clauses: %q %v", q.Purpose, q.MaxLoss)
	}
	if len(q.Return) != 2 || q.Return[0].Name() != "name" {
		t.Errorf("returns: %+v", q.Return)
	}
	if q.IsAggregate() {
		t.Error("not an aggregate query")
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n, AVG(//age) AS avg_age, STDDEV(//visits//cost)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsAggregate() || len(q.GroupBy) != 1 {
		t.Fatalf("aggregate parse: %+v", q)
	}
	if q.Return[0].Agg != AggCount || q.Return[0].Path != nil || q.Return[0].As != "n" {
		t.Errorf("COUNT(*): %+v", q.Return[0])
	}
	if q.Return[2].Name() != "stddev_cost" {
		t.Errorf("derived name = %q", q.Return[2].Name())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOR",
		"FOR //x",                          // no RETURN
		"FOR //x RETURN",                   // empty return
		"FOR //x WHERE RETURN //y",         // empty where
		"FOR //x RETURN //y MAXLOSS 2",     // out of range
		"FOR //x RETURN //y MAXLOSS",       // missing number
		"FOR //x RETURN //y PURPOSE",       // missing purpose
		"FOR //x GROUP BY //g RETURN //y",  // group by without aggregates
		"FOR //x RETURN //y trailing",      // trailing input
		"FOR //x WHERE //a ~ 3 RETURN //y", // bad operator
		"FOR //x WHERE //a = 'unclosed RETURN //y",
		"FOR //x RETURN SUM //y",                  // missing parens
		"FOR //x RETURN AVG(//y",                  // unclosed paren
		"FOR //x WHERE //a CONTAINS 3 RETURN //y", // contains needs string
		"FOR //x RETURN //y AS 'str'",             // AS needs ident
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCanonicalStringRoundTrip(t *testing.T) {
	srcs := []string{
		"FOR //patient WHERE //diagnosis = 'diabetes' AND //age >= 40 RETURN //name, //dob PURPOSE epidemiology MAXLOSS 0.25",
		"FOR //patient GROUP BY //diagnosis RETURN COUNT(*), AVG(//age) AS mean_age",
		"FOR //patient WHERE NOT (//age < 30 OR //name CONTAINS 'Bob') RETURN //diagnosis",
		"FOR //patient WHERE EXISTS //visits//cost RETURN //name AS who",
	}
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("canonical form unstable:\n%s\n%s", q.String(), q2.String())
		}
	}
}

func TestEvaluatePlain(t *testing.T) {
	q := MustParse("FOR //patient WHERE //diagnosis = 'diabetes' RETURN //name, //age")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0] != "Alice Ang" || res.Rows[1][0] != "Cara Diaz" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvaluateNumericPredicates(t *testing.T) {
	cases := []struct {
		where string
		want  int
	}{
		{"//age >= 45", 2},
		{"//age > 45", 1},
		{"//age <= 35", 1},
		{"//age != 54", 2},
		{"//age = 35", 1},
		{"//visits//cost > 150", 1},
		{"//age > 30 AND //diagnosis = 'diabetes'", 2},
		{"//age < 40 OR //diagnosis = 'asthma'", 2},
		{"NOT //diagnosis = 'diabetes'", 1},
		{"//name CONTAINS 'a'", 2}, // Bob Baker, Cara Diaz ("Alice Ang" has no lowercase a)
		{"EXISTS //visits", 3},
		{"EXISTS //allergies", 0},
	}
	for _, tc := range cases {
		q := MustParse("FOR //patient WHERE " + tc.where + " RETURN //name")
		res, err := q.Evaluate(doc(t), EvalOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		if len(res.Rows) != tc.want {
			t.Errorf("WHERE %s: rows = %d, want %d", tc.where, len(res.Rows), tc.want)
		}
	}
}

func TestEvaluateAggregate(t *testing.T) {
	q := MustParse("FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n, AVG(//age) AS avg_age, SUM(//visits//cost) AS total")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	// Groups sort lexicographically: asthma, diabetes.
	if res.Rows[0][0] != "asthma" || res.Rows[1][0] != "diabetes" {
		t.Fatalf("group order: %v", res.Rows)
	}
	if res.Rows[1][1] != "2" {
		t.Errorf("diabetes count = %q", res.Rows[1][1])
	}
	avg, _ := strconv.ParseFloat(res.Rows[1][2], 64)
	if math.Abs(avg-44.5) > 1e-9 {
		t.Errorf("diabetes avg age = %v, want 44.5", avg)
	}
	total, _ := strconv.ParseFloat(res.Rows[1][3], 64)
	if math.Abs(total-400.5) > 1e-9 {
		t.Errorf("diabetes total cost = %v, want 400.5", total)
	}
}

func TestEvaluateGlobalAggregate(t *testing.T) {
	q := MustParse("FOR //patient RETURN COUNT(*) AS n, MIN(//age) AS lo, MAX(//age) AS hi, STDDEV(//age) AS sd")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0] != "3" || res.Rows[0][1] != "35" || res.Rows[0][2] != "54" {
		t.Errorf("aggregates = %v", res.Rows[0])
	}
	sd, _ := strconv.ParseFloat(res.Rows[0][3], 64)
	if math.Abs(sd-9.504) > 0.01 {
		t.Errorf("stddev = %v, want about 9.504 (sample)", sd)
	}
}

func TestEvaluateAggregateOverEmptyGroupIsEmptyCell(t *testing.T) {
	q := MustParse("FOR //patient WHERE //age > 200 RETURN AVG(//age) AS a")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("no contexts -> no groups, got %v", res.Rows)
	}
}

func TestEvaluateResolverApproximateTag(t *testing.T) {
	// Requester uses //dateOfBirth; document calls it dob.
	q := MustParse("FOR //patient RETURN //dateOfBirth AS dob")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "" {
		t.Fatalf("without resolver the loose tag should miss, got %q", res.Rows[0][0])
	}
	resolver := func(name string) []string {
		if strings.EqualFold(name, "dateOfBirth") {
			return []string{"dob", "birthdate"}
		}
		return nil
	}
	res, err = q.Evaluate(doc(t), EvalOptions{Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "1971-03-05" {
		t.Errorf("resolver should map dateOfBirth->dob, got %q", res.Rows[0][0])
	}
	// Resolver also applies in predicates.
	q2 := MustParse("FOR //patient WHERE //dateOfBirth CONTAINS '1980' RETURN //name")
	res2, err := q2.Evaluate(doc(t), EvalOptions{Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0] != "Bob Baker" {
		t.Errorf("resolved predicate rows = %v", res2.Rows)
	}
}

func TestEvaluateMultiValueJoin(t *testing.T) {
	q := MustParse("FOR //patient WHERE //name = 'Alice Ang' RETURN //visits//cost AS costs")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "120.5; 80" {
		t.Errorf("multi-value cell = %q", res.Rows[0][0])
	}
}

func TestResultXMLRoundTrip(t *testing.T) {
	q := MustParse("FOR //patient RETURN //name, //diagnosis")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ResultFromNode(res.ToNode())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Columns) != len(res.Columns) {
		t.Fatalf("round trip shape: %v vs %v", back, res)
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if res.Rows[i][j] != back.Rows[i][j] {
				t.Errorf("cell (%d,%d) = %q, want %q", i, j, back.Rows[i][j], res.Rows[i][j])
			}
		}
	}
	if _, err := ResultFromNode(xmltree.NewElem("x")); err == nil {
		t.Error("wrong root should fail")
	}
}

func TestExtractFeatures(t *testing.T) {
	q := MustParse("FOR //patient WHERE //age >= 40 AND //diagnosis = 'diabetes' AND NOT //name CONTAINS 'X' GROUP BY //diagnosis RETURN AVG(//visits//cost) AS c, COUNT(*) AS n MAXLOSS 0.4")
	f := q.ExtractFeatures()
	if f.RangePredicates != 1 || f.EqPredicates != 1 || f.ContainsPredicates != 1 || f.Negations != 1 {
		t.Errorf("predicate features: %+v", f)
	}
	if f.AggReturns != 2 || f.PlainReturns != 0 || f.GroupBys != 1 {
		t.Errorf("return features: %+v", f)
	}
	if f.MaxLoss != 0.4 {
		t.Errorf("maxloss feature: %v", f.MaxLoss)
	}

	ident := MustParse("FOR //patient RETURN //name, //ssn").ExtractFeatures()
	if !ident.ReturnsIdentifier {
		t.Error("name/ssn should flag identifier")
	}
	sens := MustParse("FOR //patient RETURN //diagnosis").ExtractFeatures()
	if !sens.ReturnsSensitive || sens.ReturnsIdentifier {
		t.Errorf("diagnosis flags: %+v", sens)
	}
}

func TestFeatureVectorShapeAndDamping(t *testing.T) {
	f := Features{EqPredicates: 50}
	v := f.Vector()
	if len(v) != 12 {
		t.Fatalf("vector length = %d", len(v))
	}
	if v[0] >= 50 {
		t.Errorf("damping failed: %v", v[0])
	}
	g := Features{EqPredicates: 2}
	if g.Vector()[0] != 2 {
		t.Errorf("small counts undamped: %v", g.Vector()[0])
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic")
		}
	}()
	MustParse("not a query")
}

func TestParseOrderByAndLimit(t *testing.T) {
	q := MustParse("FOR //patient RETURN //name, //age ORDER BY age DESC LIMIT 2 PURPOSE research")
	if q.OrderBy != "age" || !q.OrderDesc || q.Limit != 2 {
		t.Fatalf("clauses: %q %v %d", q.OrderBy, q.OrderDesc, q.Limit)
	}
	// Canonical string round trips.
	q2 := MustParse(q.String())
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
	for _, bad := range []string{
		"FOR //x RETURN //y ORDER BY",
		"FOR //x RETURN //y ORDER //y",
		"FOR //x RETURN //y LIMIT 0",
		"FOR //x RETURN //y LIMIT -3",
		"FOR //x RETURN //y LIMIT two",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestEvaluateOrderByAndLimit(t *testing.T) {
	q := MustParse("FOR //patient RETURN //name, //age ORDER BY age DESC LIMIT 2")
	res, err := q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit gave %d rows", len(res.Rows))
	}
	if res.Rows[0][1] != "54" || res.Rows[1][1] != "45" {
		t.Errorf("descending ages = %v", res.Rows)
	}
	// Ascending, string column.
	q = MustParse("FOR //patient RETURN //name ORDER BY name LIMIT 1")
	res, err = q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "Alice Ang" {
		t.Errorf("ascending first = %v", res.Rows)
	}
	// Unknown order column errors.
	q = MustParse("FOR //patient RETURN //name ORDER BY nosuch")
	if _, err := q.Evaluate(doc(t), EvalOptions{}); err == nil {
		t.Error("unknown ORDER BY column should error")
	}
	// ORDER BY applies to aggregate output too.
	q = MustParse("FOR //patient GROUP BY //diagnosis RETURN COUNT(*) AS n ORDER BY n DESC LIMIT 1")
	res, err = q.Evaluate(doc(t), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "diabetes" {
		t.Errorf("top group = %v", res.Rows)
	}
}

func TestLimitFeature(t *testing.T) {
	f := MustParse("FOR //patient RETURN //name LIMIT 2").ExtractFeatures()
	if f.LimitN != 2 {
		t.Errorf("LimitN = %d", f.LimitN)
	}
	v := f.Vector()
	if v[len(v)-1] != 1 {
		t.Errorf("tiny limit should flag: %v", v)
	}
	g := MustParse("FOR //patient RETURN //name LIMIT 100").ExtractFeatures()
	if g.Vector()[len(v)-1] != 0 {
		t.Error("large limit should not flag")
	}
}

// Property over a mixed workload: Parse(q.String()) is a fixpoint — the
// canonical rendering re-parses to the identical canonical rendering.
func TestCanonicalFormFixpointProperty(t *testing.T) {
	srcs := []string{
		"FOR //patient WHERE //age >= 40 AND //diagnosis = 'diabetes' RETURN //name, //dob PURPOSE epidemiology MAXLOSS 0.25",
		"FOR //patient GROUP BY //diagnosis RETURN COUNT(*), AVG(//age) AS mean_age ORDER BY mean_age DESC LIMIT 3",
		"FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS a, STDDEV(//rate) AS s PURPOSE research MAXLOSS 0.1",
		"FOR //patient WHERE NOT (//age < 30 OR //name CONTAINS 'x''y') RETURN //zip LIMIT 7",
		"FOR //e WHERE EXISTS //visits//cost RETURN MAX(//visits//cost) AS hi, MIN(//visits//cost) AS lo",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c1 := q1.String()
		q2, err := Parse(c1)
		if err != nil {
			t.Fatalf("reparse %q: %v", c1, err)
		}
		if c2 := q2.String(); c2 != c1 {
			t.Errorf("not a fixpoint:\n  %s\n  %s", c1, c2)
		}
	}
}

// Robustness: Parse never panics, whatever bytes arrive — it returns an
// error or a query. (The HTTP endpoint feeds it raw request bodies.)
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// And a few adversarial shapes quick.Check is unlikely to draw.
	for _, src := range []string{
		"FOR", "FOR ", "FOR //", "FOR //a RETURN", "FOR //a RETURN //b AS",
		"FOR //a WHERE //b = RETURN //c",
		"FOR //a RETURN //b LIMIT 99999999999999999999",
		"FOR //a RETURN COUNT(", "FOR //a RETURN COUNT(*", "'''",
		"FOR //a WHERE ((((//b = 1 RETURN //c",
		strings.Repeat("FOR //a ", 1000),
	} {
		if _, err := Parse(src); err == nil && src != "" {
			// Errors are expected; success is fine too as long as no panic.
			_ = err
		}
	}
}
