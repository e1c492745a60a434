package source

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privateiye/internal/anonymity"
	"privateiye/internal/audit"
	"privateiye/internal/clinical"
	"privateiye/internal/piql"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/xmltree"
)

// bg is the background context for endpoint calls that need no deadline.
var bg = context.Background()

func hospitalSource(t *testing.T) *Source {
	t.Helper()
	g := clinical.NewGenerator(41)
	cat := relational.NewCatalog()
	patients, err := g.Patients("patients", 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	comp, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(comp); err != nil {
		t.Fatal(err)
	}

	pol, err := policy.NewPolicy("hospitalA", policy.Deny,
		policy.Rule{Item: "//patients/row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//patients/row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//patients/row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//patients/row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
	)
	if err != nil {
		t.Fatal(err)
	}
	view, err := policy.NewPrivacyView("hospitalA-private",
		policy.ViewItem{Item: "//patients/row/name", Sensitivity: policy.High},
		policy.ViewItem{Item: "//patients/row/id", Sensitivity: policy.High},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{
		Name:    "hospitalA",
		Catalog: cat,
		Policy:  pol,
		View:    view,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestNewValidation(t *testing.T) {
	pol, _ := policy.NewPolicy("p", policy.Deny)
	if _, err := New(Config{Catalog: relational.NewCatalog(), Policy: pol}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := New(Config{Name: "s", Catalog: relational.NewCatalog()}); err == nil {
		t.Error("missing policy should fail")
	}
	if _, err := New(Config{Name: "s", Policy: pol}); err == nil {
		t.Error("no data should fail")
	}
}

func TestSummaryRedaction(t *testing.T) {
	src := hospitalSource(t)
	shared := src.Summary()
	if shared.Has("/patients/row/name") {
		t.Error("private name path leaked into shared summary")
	}
	if !shared.Has("/patients/row/age") {
		t.Error("public age path missing from summary")
	}
	// The full internal summary still knows the name path (the rewriter
	// needs it).
	if !src.summary.Has("/patients/row/name") {
		t.Error("internal summary should be complete")
	}
}

func TestExecuteRelationalAggregate(t *testing.T) {
	src := hospitalSource(t)
	q := piql.MustParse("FOR //compliance/row GROUP BY //test RETURN AVG(//rate) AS avg_rate, COUNT(*) AS n PURPOSE research MAXLOSS 0.8")
	ans, err := src.Execute(q, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) != 3 {
		t.Fatalf("groups = %d, want 3: %v", len(ans.Result.Rows), ans.Result.Rows)
	}
	// The aggregate-inference mitigation applies (cluster KB routes
	// grouped aggregates over rates there): avg_rate is rounded to
	// integers.
	for _, row := range ans.Result.Rows {
		if strings.Contains(row[1], ".") {
			t.Errorf("avg_rate %q should be rounded by mitigation (technique %s)", row[1], ans.Technique)
		}
	}
	if ans.Plan == nil || ans.Node == nil {
		t.Error("answer missing plan or tagged node")
	}
	if got, _ := ans.Node.Attr("source"); got != "hospitalA" {
		t.Errorf("tag source = %q", got)
	}
}

func TestExecuteDeniesIdentifiers(t *testing.T) {
	src := hospitalSource(t)
	// id is denied for any purpose.
	q := piql.MustParse("FOR //patients/row RETURN //id PURPOSE research")
	if _, err := src.Execute(q, "researcher"); err == nil {
		t.Fatal("id query should be fully denied")
	}
	// Mixed query survives with id dropped.
	q = piql.MustParse("FOR //patients/row WHERE //age > 40 RETURN //id, //age PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ans.Result.Columns {
		if c == "id" {
			t.Error("id column survived")
		}
	}
	if len(ans.Rewrite.DroppedReturns) != 1 {
		t.Errorf("dropped = %+v", ans.Rewrite.DroppedReturns)
	}
}

func TestExecutePurposeMatters(t *testing.T) {
	src := hospitalSource(t)
	q := piql.MustParse("FOR //patients/row RETURN //name PURPOSE treatment MAXLOSS 0.9")
	if _, err := src.Execute(q, "doc"); err != nil {
		t.Errorf("name for treatment should pass: %v", err)
	}
	q = piql.MustParse("FOR //patients/row RETURN //name PURPOSE marketing")
	if _, err := src.Execute(q, "doc"); err == nil {
		t.Error("name for marketing should be denied")
	}
}

func TestExecuteApproximateTagResolution(t *testing.T) {
	src := hospitalSource(t)
	// "gender" is a synonym of the source's "sex" column.
	q := piql.MustParse("FOR //patients/row WHERE //gender = 'F' RETURN //age PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) == 0 {
		t.Fatal("resolver should map gender->sex and find rows")
	}
	// Roughly half the 200 patients are F.
	if len(ans.Result.Rows) < 60 || len(ans.Result.Rows) > 140 {
		t.Errorf("F rows = %d, want around 100", len(ans.Result.Rows))
	}
}

func TestExecuteXMLDocsSource(t *testing.T) {
	doc, err := xmltree.ParseString(`
<clinic>
  <patient><name>Ana</name><age>44</age><diagnosis>diabetes</diagnosis></patient>
  <patient><name>Ben</name><age>61</age><diagnosis>asthma</diagnosis></patient>
</clinic>`)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := policy.NewPolicy("clinic", policy.Deny,
		policy.Rule{Item: "//patient/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
	)
	src, err := New(Config{Name: "clinic", Docs: []*xmltree.Node{doc}, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse("FOR //patient WHERE //age > 50 RETURN //age PURPOSE research")
	ans, err := src.Execute(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	// One patient matches; age is a quasi-identifier, so the identity-
	// disclosure mitigation generalizes it to a band containing 61.
	if len(ans.Result.Rows) != 1 || ans.Result.Rows[0][0] != "60-69" {
		t.Errorf("XML source rows = %v (technique %s)", ans.Result.Rows, ans.Technique)
	}
}

func TestAuditStopsRepeatedAggregates(t *testing.T) {
	g := clinical.NewGenerator(5)
	cat := relational.NewCatalog()
	patients, _ := g.Patients("patients", 50, 2)
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	pol, _ := policy.NewPolicy("s", policy.Allow)
	log, err := audit.NewLog(audit.Config{Population: 50, MinSetSize: 3, MaxOverlap: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(Config{Name: "s", Catalog: cat, Policy: pol, Audit: log})
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse("FOR //patients/row WHERE //age > 30 RETURN AVG(//age) AS a PURPOSE research")
	if _, err := src.Execute(q, "snooper"); err != nil {
		t.Fatalf("first aggregate should pass: %v", err)
	}
	// The same query again overlaps itself completely: refused.
	if _, err := src.Execute(q, "snooper"); err == nil {
		t.Fatal("repeated aggregate should be refused by overlap control")
	}
	// A different requester is unaffected.
	if _, err := src.Execute(q, "other"); err != nil {
		t.Errorf("other requester should pass: %v", err)
	}
}

func TestProfilesRespectPrivacyView(t *testing.T) {
	src := hospitalSource(t)
	for _, p := range src.Profiles() {
		if p.Name == "name" || p.Name == "id" {
			t.Errorf("private field %q profiled for sharing", p.Name)
		}
	}
}

func TestTransformToRelational(t *testing.T) {
	src := hospitalSource(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"FOR //patients/row WHERE //age > 40 RETURN //age", true},
		{"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n, AVG(//age) AS a", true},
		{"FOR //patients/row WHERE //name CONTAINS 'An' RETURN //age", true},
		{"FOR //patients/row WHERE NOT //age > 40 RETURN //age", true},
		{"FOR //patients/row WHERE EXISTS //age RETURN //age", false},  // EXISTS: XML path
		{"FOR //unknown/row RETURN //age", false},                      // unknown table
		{"FOR //patients/row RETURN //age, COUNT(*)", false},           // mixed plain+agg
		{"FOR //patients/row WHERE //age = 'abc' RETURN //age", false}, // untypeable literal
	}
	for _, tc := range cases {
		q := piql.MustParse(tc.src)
		_, ok := TransformToRelational(q, src.cfg.Catalog, src.resolver)
		if ok != tc.want {
			t.Errorf("TransformToRelational(%q) = %v, want %v", tc.src, ok, tc.want)
		}
	}
}

func TestTransformedSQLAgreesWithXMLFallback(t *testing.T) {
	src := hospitalSource(t)
	// Same query through both engines gives identical row counts.
	q := piql.MustParse("FOR //patients/row WHERE //age >= 40 AND //sex = 'F' RETURN //age, //sex PURPOSE research MAXLOSS 0.9")
	rq, ok := TransformToRelational(q, src.cfg.Catalog, src.resolver)
	if !ok {
		t.Fatal("should transform")
	}
	relRes, err := rq.Execute(src.cfg.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := src.cfg.Catalog.Table("patients")
	doc := relational.TableToXML(tab)
	xmlRes, err := q.Evaluate(doc, piql.EvalOptions{Resolver: src.resolver})
	if err != nil {
		t.Fatal(err)
	}
	if len(relRes.Rows) != len(xmlRes.Rows) {
		t.Errorf("engines disagree: relational %d rows, xml %d rows", len(relRes.Rows), len(xmlRes.Rows))
	}
	if len(relRes.Rows) == 0 {
		t.Error("test query matched nothing")
	}
}

func TestHTTPEndpointParity(t *testing.T) {
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), psi.TestGroup())
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	client := NewClient(server.URL, "hospitalA")

	// Summary parity.
	ls, _ := local.FetchSummary(bg)
	cs, err := client.FetchSummary(bg)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != cs.Len() {
		t.Errorf("summary sizes differ: %d vs %d", ls.Len(), cs.Len())
	}

	// Profiles parity.
	lp, _ := local.FetchProfiles(bg)
	cp, err := client.FetchProfiles(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != len(cp) {
		t.Errorf("profiles differ: %d vs %d", len(lp), len(cp))
	}

	// Query over HTTP.
	qs := "FOR //patients/row WHERE //age > 40 RETURN //age PURPOSE research MAXLOSS 0.9"
	node, err := client.Query(bg, qs, "researcher")
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "answer" {
		t.Errorf("answer root = %q", node.Name)
	}
	// Denied query maps to an HTTP error.
	if _, err := client.Query(bg, "FOR //patients/row RETURN //id PURPOSE research", "researcher"); err == nil {
		t.Error("denied query should error over HTTP")
	}
	if _, err := client.Query(bg, "not piql at all", "researcher"); err == nil {
		t.Error("bad query text should error")
	}

	// PSI round trip over HTTP.
	blinded, err := client.PSIBlinded(bg, "sex", "")
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := client.PSIExponentiate(bg, blinded)
	if err != nil {
		t.Fatal(err)
	}
	if len(doubled.ChildrenNamed("e")) != len(blinded.ChildrenNamed("e")) {
		t.Error("psi exponentiate changed cardinality")
	}
}

func TestPSIIntersectionAcrossEndpoints(t *testing.T) {
	// Two sources sharing some patients by name; PSI finds the overlap.
	mk := func(name string, names []string) *Local {
		root := xmltree.NewElem("reg")
		for _, n := range names {
			root.Append(xmltree.NewElem("patient").Append(xmltree.NewText("name", n)))
		}
		pol, _ := policy.NewPolicy(name, policy.Allow)
		s, err := New(Config{Name: name, Docs: []*xmltree.Node{root}, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLocal(s, []byte("shared"), psi.TestGroup())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a := mk("A", []string{"alice", "bob", "carol"})
	b := mk("B", []string{"carol", "dave", "alice"})
	// The relay the mediator runs: each side's blinds are exponentiated
	// by the other, and only double-blinded elements are compared.
	doubled := func(owner, peer *Local) *xmltree.Node {
		t.Helper()
		blinded, err := owner.PSIBlinded(bg, "name", "")
		if err != nil {
			t.Fatal(err)
		}
		out, err := peer.PSIExponentiate(bg, blinded)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	inB := map[string]bool{}
	for _, e := range doubled(b, a).ChildrenNamed("e") {
		inB[e.Text] = true
	}
	matches := 0
	for _, e := range doubled(a, b).ChildrenNamed("e") {
		if inB[e.Text] {
			matches++
		}
	}
	if matches != 2 {
		t.Errorf("psi overlap = %d, want 2", matches)
	}
}

func TestNewLocalValidation(t *testing.T) {
	src := hospitalSource(t)
	if _, err := NewLocal(nil, []byte("s"), nil); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := NewLocal(src, nil, nil); err == nil {
		t.Error("empty salt should fail")
	}
	l, err := NewLocal(src, []byte("s"), nil)
	if err != nil || l.Group == nil {
		t.Errorf("default group expected: %v", err)
	}
}

func TestAddPreferenceTightensDisclosure(t *testing.T) {
	src := hospitalSource(t)
	q := piql.MustParse("FOR //patients/row RETURN //age PURPOSE research MAXLOSS 0.9")
	if _, err := src.Execute(q, "r"); err != nil {
		t.Fatalf("age should pass before the preference: %v", err)
	}
	// A data subject registers a preference that forbids research use of
	// age entirely.
	pref, err := policy.NewPolicy("subject-7", policy.Deny,
		policy.Rule{Item: "//patients/row/age", Purpose: "research", Effect: policy.Deny},
		policy.Rule{Item: "//patients//*", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
		policy.Rule{Item: "//compliance//*", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddPreference(pref); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Execute(q, "r"); err == nil {
		t.Fatal("preference should now deny research use of age")
	}
	// Other purposes covered by the preference still pass.
	q2 := piql.MustParse("FOR //patients/row RETURN //age PURPOSE treatment MAXLOSS 0.9")
	if _, err := src.Execute(q2, "r"); err != nil {
		t.Errorf("treatment should still pass: %v", err)
	}
	if err := src.AddPreference(nil); err == nil {
		t.Error("nil preference should error")
	}
	if got := len(src.Preferences()); got != 1 {
		t.Errorf("preferences = %d", got)
	}
}

func TestPreferencesOverHTTP(t *testing.T) {
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), psi.TestGroup())
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()

	prefXML := `<policy owner="subject-9" default="allow">
  <rule item="//patients/row/age" purpose="research" effect="deny"/>
</policy>`
	resp, err := server.Client().Post(server.URL+"/preferences", "application/xml", strings.NewReader(prefXML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	client := NewClient(server.URL, "hospitalA")
	if _, err := client.Query(bg, "FOR //patients/row RETURN //age PURPOSE research MAXLOSS 0.9", "r"); err == nil {
		t.Error("preference registered over HTTP should deny")
	}
	// Bad payloads rejected.
	resp, _ = server.Client().Post(server.URL+"/preferences", "application/xml", strings.NewReader("<notpolicy/>"))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad policy status = %d", resp.StatusCode)
	}
}

func TestSourceWithCertifiedKAnonymity(t *testing.T) {
	// A source whose preservation KB routes identity breaches to the
	// certified k-anonymizer: every released identifying result is
	// provably k-anonymous, not just heuristically coarsened.
	g := clinical.NewGenerator(77)
	cat := relational.NewCatalog()
	patients, err := g.Patients("patients", 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(patients); err != nil {
		t.Fatal(err)
	}
	pol, _ := policy.NewPolicy("s", policy.Allow)
	reg := preserve.NewRegistry()
	kcfg := anonymity.Config{
		K: 5,
		QIs: []anonymity.QuasiIdentifier{
			{Column: "age", Hierarchy: preserve.AgeHierarchy()},
			{Column: "zip", Hierarchy: preserve.ZipHierarchy()},
			{Column: "sex", Hierarchy: preserve.SexHierarchy()},
		},
		MaxSuppression: 0.05,
	}
	reg.Register(preserve.BreachIdentity, anonymity.Technique{Cfg: kcfg})
	reg.Register(preserve.BreachAttribute, anonymity.Technique{Cfg: kcfg})
	src, err := New(Config{Name: "s", Catalog: cat, Policy: pol, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	q := piql.MustParse("FOR //patients/row RETURN //age, //zip, //sex, //diagnosis PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Technique != "kanonymize(k=5,datafly)" {
		t.Fatalf("technique = %s (breach %s)", ans.Technique, ans.Breach)
	}
	ok, min, err := anonymity.Verify(ans.Result, []string{"age", "zip", "sex"}, 5)
	if err != nil || !ok {
		t.Errorf("released result not 5-anonymous: min class %d, %v", min, err)
	}
}

func TestTransformerLiteralTypes(t *testing.T) {
	// Typed-literal coverage: float, int (with decimal point), bool and
	// failure modes, exercised through full queries on a mixed-type table.
	cat := relational.NewCatalog()
	tab := relational.NewTable("m", relational.MustSchema(
		relational.Column{Name: "f", Type: relational.TFloat},
		relational.Column{Name: "i", Type: relational.TInt},
		relational.Column{Name: "b", Type: relational.TBool},
		relational.Column{Name: "s", Type: relational.TString},
	))
	for j := 0; j < 4; j++ {
		if err := tab.Insert(relational.Row{
			relational.Float(float64(j) + 0.5),
			relational.Int(int64(j)),
			relational.Bool(j%2 == 0),
			relational.Str(fmt.Sprintf("v%d", j)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where string
		ok    bool
		rows  int
	}{
		{"//f > 1.4", true, 3},
		{"//i = 2.0", true, 1}, // decimal-point integer literal
		{"//i <= 2", true, 3},
		{"//b = true", true, 2},
		{"//s != 'v0'", true, 3},
		{"//i = 1.5", false, 0}, // fractional int: XML fallback
		{"//b = maybe", false, 0},
		{"//f = notanum", false, 0},
		{"//f > 1 OR //i = 0", true, 4},
	}
	for _, tc := range cases {
		q := piql.MustParse("FOR //m/row WHERE " + tc.where + " RETURN //s")
		rq, ok := TransformToRelational(q, cat, nil)
		if ok != tc.ok {
			t.Errorf("WHERE %s: transformable = %v, want %v", tc.where, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		res, err := rq.Execute(cat)
		if err != nil {
			t.Fatalf("WHERE %s: %v", tc.where, err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("WHERE %s: rows = %d, want %d", tc.where, len(res.Rows), tc.rows)
		}
	}
}

func TestTransformerOrderByVariants(t *testing.T) {
	src := hospitalSource(t)
	cases := []struct {
		q    string
		want bool
	}{
		{"FOR //patients/row RETURN //age ORDER BY age LIMIT 5", true},
		{"FOR //patients/row RETURN //age ORDER BY age DESC", false}, // desc: XML path
		{"FOR //patients/row RETURN //age ORDER BY nosuch", false},   // unknown col
		{"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n ORDER BY n", true},
		{"FOR //patients/row GROUP BY //sex RETURN COUNT(*) AS n ORDER BY sex", true},
	}
	for _, tc := range cases {
		q := piql.MustParse(tc.q)
		_, ok := TransformToRelational(q, src.cfg.Catalog, src.resolver)
		if ok != tc.want {
			t.Errorf("%s: transformable = %v, want %v", tc.q, ok, tc.want)
		}
	}
}

func TestExecuteRelationalOnlyXMLFallback(t *testing.T) {
	// A relational-only source answering an EXISTS query (no SQL shape)
	// must fall back to evaluating over the XML projection of its tables.
	src := hospitalSource(t)
	q := piql.MustParse("FOR //patients/row WHERE EXISTS //age RETURN //age PURPOSE research MAXLOSS 0.9")
	ans, err := src.Execute(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Result.Rows) != 200 {
		t.Errorf("fallback rows = %d, want 200", len(ans.Result.Rows))
	}
}

func TestClientErrorPaths(t *testing.T) {
	// A client pointed at nothing reports transport errors with context.
	c := NewClient("http://127.0.0.1:1", "ghost")
	if c.Name() != "ghost" {
		t.Errorf("name = %q", c.Name())
	}
	if _, err := c.FetchSummary(bg); err == nil {
		t.Error("dead node should error")
	}
	if _, err := c.FetchProfiles(bg); err == nil {
		t.Error("dead node should error")
	}
	if _, err := c.Query(bg, "FOR //x RETURN //y", "r"); err == nil {
		t.Error("dead node should error")
	}
	// nil HTTP falls back to the default client.
	c.HTTP = nil
	if c.httpClient() == nil {
		t.Error("httpClient fallback")
	}
}

func TestHandlerBadRequests(t *testing.T) {
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), psi.TestGroup())
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	client := server.Client()

	// Missing field param.
	resp, err := client.Get(server.URL + "/psi/blinded")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("/psi/blinded without field: status %d", resp.StatusCode)
	}
	// Sources serve no Bloom encodings of their columns.
	resp, err = client.Get(server.URL + "/linkage/records?field=name")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/linkage/records: status %d, want 404", resp.StatusCode)
	}
	// Bad PSI payload.
	resp, err = client.Post(server.URL+"/psi/exponentiate", "application/xml", strings.NewReader("<psi-elems><e>zz</e></psi-elems>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad psi payload: status %d", resp.StatusCode)
	}
	// Missing requester on query.
	resp, err = client.Post(server.URL+"/query", "text/plain", strings.NewReader("FOR //x RETURN //y"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing requester: status %d", resp.StatusCode)
	}
}

func TestLocalEndpointName(t *testing.T) {
	src := hospitalSource(t)
	local, _ := NewLocal(src, []byte("s"), psi.TestGroup())
	if local.Name() != "hospitalA" {
		t.Errorf("name = %q", local.Name())
	}
}

func TestClientPSISuitesLegacyServer(t *testing.T) {
	// A pre-curve server has no /psi/suites route; the client must
	// report the MODP floor, not an error, so negotiation fails closed
	// instead of failing the refresh.
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer legacy.Close()
	c := NewClient(legacy.URL, "legacy")
	suites, err := c.PSISuites(bg)
	if err != nil {
		t.Fatalf("legacy 404 should downgrade, not error: %v", err)
	}
	if len(suites) != 1 || suites[0] != psi.SuiteNameModP2048 {
		t.Fatalf("suites = %v, want [%s]", suites, psi.SuiteNameModP2048)
	}

	// A current server advertises the curve first.
	src := hospitalSource(t)
	local, err := NewLocal(src, []byte("salt"), psi.TestGroup())
	if err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(NewHandler(local))
	defer server.Close()
	got, err := NewClient(server.URL, "hospitalA").PSISuites(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != psi.SuiteNameP256 || got[1] != psi.SuiteNameModP768 {
		t.Fatalf("advertised = %v, want [p256 modp768]", got)
	}
}
