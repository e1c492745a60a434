package relational

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// complianceCatalog builds the catalog used across tests: the clinical
// scenario of the paper's Example 1, with per-HMO test compliance rates.
func complianceCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	rates := NewTable("compliance", MustSchema(
		Column{"hmo", TString},
		Column{"test", TString},
		Column{"rate", TFloat},
	))
	rows := []struct {
		hmo, test string
		rate      float64
	}{
		{"HMO1", "HbA1c", 75.0}, {"HMO1", "Lipid", 56.0}, {"HMO1", "Eye", 43.0},
		{"HMO2", "HbA1c", 88.0}, {"HMO2", "Lipid", 59.2}, {"HMO2", "Eye", 47.4},
		{"HMO3", "HbA1c", 84.5}, {"HMO3", "Lipid", 50.1}, {"HMO3", "Eye", 45.6},
		{"HMO4", "HbA1c", 84.6}, {"HMO4", "Lipid", 51.1}, {"HMO4", "Eye", 45.9},
	}
	for _, r := range rows {
		if err := rates.Insert(Row{Str(r.hmo), Str(r.test), Float(r.rate)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(rates); err != nil {
		t.Fatal(err)
	}

	hmos := NewTable("hmos", MustSchema(
		Column{"hmo", TString},
		Column{"county", TString},
		Column{"members", TInt},
	))
	for _, r := range [][]string{
		{"HMO1", "Allegheny", "52000"},
		{"HMO2", "Allegheny", "31000"},
		{"HMO3", "Butler", "18000"},
		{"HMO4", "Butler", "27000"},
	} {
		if err := hmos.InsertStrings(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(hmos); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{"a", TInt}, Column{"a", TString}); err == nil {
		t.Error("duplicate columns should fail")
	}
	if _, err := NewSchema(Column{"", TInt}); err == nil {
		t.Error("empty column name should fail")
	}
	s := MustSchema(Column{"a", TInt}, Column{"b", TString})
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Error("Index misbehaves")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tab := NewTable("t", MustSchema(Column{"n", TInt}))
	if err := tab.Insert(Row{Str("oops")}); err == nil {
		t.Error("wrong type should fail")
	}
	if err := tab.Insert(Row{Int(1), Int(2)}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := tab.Insert(Row{Null(TString)}); err != nil {
		t.Errorf("null of any declared kind should insert: %v", err)
	}
	if err := tab.InsertStrings("12"); err != nil {
		t.Errorf("InsertStrings: %v", err)
	}
	if err := tab.InsertStrings("xy"); err == nil {
		t.Error("InsertStrings with bad int should fail")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestSelectWhere(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:   "compliance",
		Where:  Cmp{Eq, ColRef{"hmo"}, Lit{Str("HMO1")}},
		Select: []string{"test", "rate"},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if len(res.Schema.Columns) != 2 {
		t.Fatalf("cols = %d, want 2", len(res.Schema.Columns))
	}
}

func TestAggregateByTestMatchesFigure1a(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:    "compliance",
		GroupBy: []string{"test"},
		Aggregates: []Aggregate{
			{Avg, "rate", "avg_rate"},
			{StdDev, "rate", "sd_rate"},
			{Count, "", "n"},
		},
		OrderBy: []string{"test"},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	// Eye row: mean of 43.0, 47.4, 45.6, 45.9 = 45.475.
	eye := res.Rows[0]
	if eye[0].S != "Eye" {
		t.Fatalf("first group = %q, want Eye", eye[0].S)
	}
	if math.Abs(eye[1].F-45.475) > 1e-9 {
		t.Errorf("avg = %v, want 45.475", eye[1].F)
	}
	if eye[3].I != 4 {
		t.Errorf("count = %d, want 4", eye[3].I)
	}
	if eye[2].F <= 0 {
		t.Errorf("stddev should be positive, got %v", eye[2].F)
	}
}

func TestAggregateNoGroupByOnEmptyInput(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:       "compliance",
		Where:      Cmp{Eq, ColRef{"hmo"}, Lit{Str("NOPE")}},
		Aggregates: []Aggregate{{Count, "", "n"}, {Avg, "rate", "a"}},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("count = %v, want 0", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull {
		t.Errorf("avg of empty should be null")
	}
}

func TestJoin(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:  "compliance",
		Join:  &JoinSpec{Table: "hmos", LeftCol: "hmo", RightCol: "hmo"},
		Where: Cmp{Eq, ColRef{"county"}, Lit{Str("Butler")}},
		GroupBy: []string{
			"county",
		},
		Aggregates: []Aggregate{{Avg, "rate", "avg_rate"}, {Count, "", "n"}},
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][2].I != 6 {
		t.Errorf("Butler join count = %v, want 6", res.Rows[0][2])
	}
	// Collision handling: joined schema keeps left "hmo", renames right.
	qq := &Query{From: "compliance", Join: &JoinSpec{Table: "hmos", LeftCol: "hmo", RightCol: "hmo"}}
	rr, err := qq.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Schema.Index("hmos.hmo") < 0 {
		t.Errorf("joined schema should contain hmos.hmo, has %v", rr.Schema.Names())
	}
}

func TestOrderByAndLimit(t *testing.T) {
	c := complianceCatalog(t)
	q := &Query{
		From:    "compliance",
		Select:  []string{"hmo", "test", "rate"},
		OrderBy: []string{"rate"},
		Limit:   2,
	}
	res, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit gave %d rows", len(res.Rows))
	}
	if res.Rows[0][2].F != 43.0 {
		t.Errorf("first row rate = %v, want 43.0", res.Rows[0][2].F)
	}
}

func TestExprEvaluation(t *testing.T) {
	s := MustSchema(Column{"a", TInt}, Column{"b", TString})
	row := Row{Int(5), Str("hello world")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Cmp{Gt, ColRef{"a"}, Lit{Int(3)}}, true},
		{Cmp{Lt, ColRef{"a"}, Lit{Int(3)}}, false},
		{Cmp{Ne, ColRef{"a"}, Lit{Int(3)}}, true},
		{Cmp{Ge, ColRef{"a"}, Lit{Int(5)}}, true},
		{Cmp{Le, ColRef{"a"}, Lit{Int(5)}}, true},
		{And{[]Expr{Cmp{Gt, ColRef{"a"}, Lit{Int(3)}}, Contains{"b", "world"}}}, true},
		{And{[]Expr{Cmp{Gt, ColRef{"a"}, Lit{Int(3)}}, Contains{"b", "mars"}}}, false},
		{Or{[]Expr{Cmp{Gt, ColRef{"a"}, Lit{Int(99)}}, Contains{"b", "hello"}}}, true},
		{Not{Contains{"b", "mars"}}, true},
		{In{"a", []Value{Int(1), Int(5)}}, true},
		{In{"a", []Value{Int(1), Int(2)}}, false},
		{True, true},
		{False, false},
		{Cmp{Eq, ColRef{"a"}, Lit{Null(TInt)}}, false}, // NULL compares false
	}
	for i, tc := range cases {
		v, err := tc.e.Eval(s, row)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, tc.e.SQL(), err)
		}
		if v.B != tc.want {
			t.Errorf("case %d (%s) = %v, want %v", i, tc.e.SQL(), v.B, tc.want)
		}
	}
	if _, err := (ColRef{"zz"}).Eval(s, row); err == nil {
		t.Error("unknown column should error")
	}
}

func TestSQLRendering(t *testing.T) {
	q := &Query{
		From: "compliance",
		Where: And{[]Expr{
			Cmp{Eq, ColRef{"test"}, Lit{Str("HbA1c")}},
			Cmp{Ge, ColRef{"rate"}, Lit{Float(50)}},
		}},
		GroupBy:    []string{"hmo"},
		Aggregates: []Aggregate{{Avg, "rate", "avg_rate"}},
		OrderBy:    []string{"hmo"},
		Limit:      10,
	}
	sql := q.SQL()
	for _, want := range []string{
		"SELECT hmo, AVG(rate) AS avg_rate",
		"FROM compliance",
		"WHERE (test = 'HbA1c') AND (rate >= 50)",
		"GROUP BY hmo",
		"ORDER BY hmo",
		"LIMIT 10",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	lit := Lit{Str("O'Brien")}
	if got := lit.SQL(); got != "'O''Brien'" {
		t.Errorf("quote escaping: %q", got)
	}
}

func TestValueParsingAndCompare(t *testing.T) {
	v, err := ParseValue(TFloat, "3.5")
	if err != nil || v.F != 3.5 {
		t.Errorf("ParseValue float: %v %v", v, err)
	}
	if v, _ := ParseValue(TInt, ""); !v.IsNull {
		t.Error("empty string should parse to null")
	}
	if _, err := ParseValue(TInt, "abc"); err == nil {
		t.Error("bad int should fail")
	}
	if _, err := ParseValue(TBool, "maybe"); err == nil {
		t.Error("bad bool should fail")
	}
	if Compare(Null(TInt), Int(0)) != -1 {
		t.Error("null should sort first")
	}
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("cross-kind numeric compare should coerce")
	}
	if Compare(Bool(false), Bool(true)) != -1 {
		t.Error("false < true")
	}
}

func TestResultHelpers(t *testing.T) {
	c := complianceCatalog(t)
	res, err := (&Query{From: "compliance", Where: Cmp{Eq, ColRef{"test"}, Lit{Str("HbA1c")}}}).Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := res.Column("rate")
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 4 {
		t.Fatalf("rates = %d, want 4", len(rates))
	}
	if _, err := res.Column("nope"); err == nil {
		t.Error("unknown column should error")
	}
	str := res.String()
	if !strings.Contains(str, "hmo") || !strings.Contains(str, "HMO1") {
		t.Errorf("String rendering incomplete:\n%s", str)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("x", MustSchema(Column{"a", TInt}))
	if err := c.Add(tab); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(tab); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table should fail")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v", got)
	}
}

func TestResultXMLRoundTrip(t *testing.T) {
	c := complianceCatalog(t)
	res, err := (&Query{From: "compliance", OrderBy: []string{"hmo", "test"}}).Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	rows := ResultToXML(res).ChildrenNamed("row")
	if len(rows) != len(res.Rows) {
		t.Fatalf("rows = %d, want %d", len(rows), len(res.Rows))
	}
	for i := range res.Rows {
		for j, name := range res.Schema.Names() {
			if got, want := rows[i].ChildText(name), res.Rows[i][j].String(); got != want {
				t.Fatalf("cell (%d,%s) = %q, want %q", i, name, got, want)
			}
		}
	}
}

func TestResultXMLNulls(t *testing.T) {
	s := MustSchema(Column{"a", TInt}, Column{"b", TString})
	res := &Result{Schema: s, Rows: []Row{{Null(TInt), Str("")}}}
	row := ResultToXML(res).Child("row")
	if null, _ := row.Child("a").Attr("null"); null != "true" {
		t.Error("null int should be marked null")
	}
	if null, _ := row.Child("b").Attr("null"); null == "true" {
		t.Error("empty string is not null")
	}
}

func TestTableSummaryPaths(t *testing.T) {
	c := complianceCatalog(t)
	tab, _ := c.Table("compliance")
	s := TableSummary(tab)
	for _, p := range []string{"/compliance/row/hmo", "/compliance/row/test", "/compliance/row/rate"} {
		if !s.Has(p) {
			t.Errorf("summary missing %q; has %v", p, s.Paths())
		}
	}
}

func TestSanitizeElemName(t *testing.T) {
	for in, want := range map[string]string{
		"hmos.hmo": "hmos_hmo",
		"a b":      "a_b",
		"9lives":   "_lives",
		"":         "_",
		"ok_name-": "ok_name-",
	} {
		if got := sanitizeElemName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equalv on random
// numeric values.
func TestCompareProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := Float(a), Float(b)
		return Compare(va, vb) == -Compare(vb, va) &&
			(Compare(va, vb) == 0) == Equalv(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every row returned by a Where query satisfies the predicate,
// and no satisfying row is missing (soundness + completeness of select).
func TestSelectSoundCompleteProperty(t *testing.T) {
	f := func(seedRates []float64, threshold float64) bool {
		if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
			return true
		}
		c := NewCatalog()
		tab := NewTable("t", MustSchema(Column{"r", TFloat}))
		n := 0
		for _, r := range seedRates {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			if err := tab.Insert(Row{Float(r)}); err != nil {
				return false
			}
			n++
		}
		if err := c.Add(tab); err != nil {
			return false
		}
		q := &Query{From: "t", Where: Cmp{Gt, ColRef{"r"}, Lit{Float(threshold)}}}
		res, err := q.Execute(c)
		if err != nil {
			return false
		}
		want := 0
		for _, row := range tab.Rows() {
			if row[0].F > threshold {
				want++
			}
		}
		for _, row := range res.Rows {
			if !(row[0].F > threshold) {
				return false
			}
		}
		return len(res.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExprColumnsAndSQLCoverage(t *testing.T) {
	e := And{Terms: []Expr{
		Cmp{Eq, ColRef{"a"}, Lit{Int(1)}},
		Or{Terms: []Expr{
			Contains{"b", "x"},
			Not{E: In{"c", []Value{Str("p"), Str("q")}}},
		}},
	}}
	cols := e.Columns(nil)
	want := map[string]bool{"a": true, "b": true, "c": true}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %q", c)
		}
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("missing columns: %v", want)
	}
	sql := e.SQL()
	for _, frag := range []string{"a = 1", "LIKE '%x%'", "NOT (c IN ('p', 'q'))", "AND", "OR"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL %q missing %q", sql, frag)
		}
	}
	// Empty conjunction/disjunction render their identities.
	if True.SQL() != "TRUE" || False.SQL() != "FALSE" {
		t.Errorf("identity rendering: %q %q", True.SQL(), False.SQL())
	}
	// All comparison operators render.
	for op, sym := range map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">="} {
		if got := (Cmp{op, ColRef{"a"}, Lit{Int(1)}}).SQL(); !strings.Contains(got, sym) {
			t.Errorf("op %v renders %q", op, got)
		}
	}
	// Null literal.
	if got := (Lit{Null(TInt)}).SQL(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
	// In with null column value evaluates false.
	s := MustSchema(Column{"c", TString})
	v, err := (In{"c", []Value{Str("p")}}).Eval(s, Row{Null(TString)})
	if err != nil || v.B {
		t.Errorf("IN over null = %v %v", v, err)
	}
}

func TestTableGet(t *testing.T) {
	c := complianceCatalog(t)
	tab, _ := c.Table("compliance")
	v, err := tab.Get(0, "hmo")
	if err != nil || v.S != "HMO1" {
		t.Errorf("Get = %v %v", v, err)
	}
	if _, err := tab.Get(-1, "hmo"); err == nil {
		t.Error("negative row should error")
	}
	if _, err := tab.Get(999, "hmo"); err == nil {
		t.Error("out-of-range row should error")
	}
	if _, err := tab.Get(0, "zz"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestTableToXMLShape(t *testing.T) {
	c := complianceCatalog(t)
	tab, _ := c.Table("hmos")
	node := TableToXML(tab)
	if node.Name != "hmos" {
		t.Errorf("root = %q", node.Name)
	}
	rows := node.ChildrenNamed("row")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].ChildText("county") == "" {
		t.Error("county cell missing")
	}
}

func TestValueStringAndAsFloat(t *testing.T) {
	cases := map[string]Value{
		"12":   Int(12),
		"1.5":  Float(1.5),
		"true": Bool(true),
		"hi":   Str("hi"),
		"":     Null(TFloat),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", v, got, want)
		}
	}
	for _, tc := range []struct {
		v  Value
		f  float64
		ok bool
	}{
		{Int(3), 3, true},
		{Float(2.5), 2.5, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{Str("4.5"), 4.5, true},
		{Str("zz"), 0, false},
		{Null(TInt), 0, false},
	} {
		f, ok := tc.v.AsFloat()
		if ok != tc.ok || (ok && f != tc.f) {
			t.Errorf("AsFloat(%v) = %v %v", tc.v, f, ok)
		}
	}
	// Cross-kind string comparison.
	if Compare(Str("abc"), Str("abd")) != -1 {
		t.Error("string compare")
	}
	if Compare(Str("x"), Int(1)) == 0 {
		t.Error("non-numeric cross-kind should use strings")
	}
}

func TestQuerySQLAllAggregates(t *testing.T) {
	q := &Query{
		From: "t",
		Aggregates: []Aggregate{
			{Count, "", "n"}, {Sum, "v", "s"}, {Avg, "v", "a"},
			{Min, "v", "lo"}, {Max, "v", "hi"}, {StdDev, "v", "sd"},
		},
	}
	sql := q.SQL()
	for _, frag := range []string{"COUNT(*)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(v)", "STDDEV(v)"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL %q missing %q", sql, frag)
		}
	}
	// Join rendering.
	q2 := &Query{From: "a", Join: &JoinSpec{Table: "b", LeftCol: "x", RightCol: "y"}, Select: []string{"x"}}
	if got := q2.SQL(); !strings.Contains(got, "JOIN b ON a.x = b.y") {
		t.Errorf("join SQL = %q", got)
	}
}
