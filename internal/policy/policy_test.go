package policy

import (
	"strings"
	"testing"
)

func hospitalPolicy(t *testing.T) *Policy {
	t.Helper()
	p, err := NewPolicy("hospitalA", Deny,
		Rule{Item: "//patient/diagnosis", Purpose: "research", Form: Aggregate, Effect: Allow, MaxLoss: 0.2},
		Rule{Item: "//patient/name", Purpose: "treatment", Form: Exact, Effect: Allow, MaxLoss: 0.5},
		Rule{Item: "//patient/ssn", Purpose: "any", Effect: Deny},
		Rule{Item: "//patient/zip", Purpose: "public-health", Form: Range, Effect: Allow, MaxLoss: 0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecideBasic(t *testing.T) {
	p := hospitalPolicy(t)
	pt := DefaultPurposes()

	// Aggregate diagnosis for epidemiology (descendant of research): allow.
	d := p.Decide(Request{"/patients/patient/diagnosis", "epidemiology", Aggregate}, pt)
	if !d.Allowed || d.MaxLoss != 0.2 {
		t.Errorf("epidemiology aggregate: %+v", d)
	}
	// Exact diagnosis for research: rule grants only aggregate -> deny.
	d = p.Decide(Request{"/patients/patient/diagnosis", "research", Exact}, pt)
	if d.Allowed {
		t.Errorf("exact should be denied when only aggregate granted: %+v", d)
	}
	if !strings.Contains(d.Reason, "aggregate") {
		t.Errorf("reason should explain the form gap: %q", d.Reason)
	}
	// Suppressed form is weaker than aggregate: allowed.
	d = p.Decide(Request{"/patients/patient/diagnosis", "research", Suppressed}, pt)
	if !d.Allowed {
		t.Errorf("weaker form should be allowed: %+v", d)
	}
	// SSN denied for every purpose, even treatment requesting exact.
	d = p.Decide(Request{"/patients/patient/ssn", "treatment", Exact}, pt)
	if d.Allowed {
		t.Errorf("ssn should be denied: %+v", d)
	}
	// Unmatched item falls to default deny.
	d = p.Decide(Request{"/patients/patient/height", "treatment", Exact}, pt)
	if d.Allowed {
		t.Errorf("default deny should apply: %+v", d)
	}
	// Purpose not implied: diagnosis for billing.
	d = p.Decide(Request{"/patients/patient/diagnosis", "billing", Aggregate}, pt)
	if d.Allowed {
		t.Errorf("billing not covered by research: %+v", d)
	}
}

func TestDecideDenyWinsOverAllow(t *testing.T) {
	pt := DefaultPurposes()
	p, err := NewPolicy("s", Deny,
		Rule{Item: "//x", Purpose: "any", Form: Exact, Effect: Allow, MaxLoss: 1},
		Rule{Item: "//x", Purpose: "research", Effect: Deny},
	)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Decide(Request{"/a/x", "research", Exact}, pt); d.Allowed {
		t.Errorf("deny must dominate allow: %+v", d)
	}
	// For purposes outside the deny rule, allow still applies.
	if d := p.Decide(Request{"/a/x", "treatment", Exact}, pt); !d.Allowed {
		t.Errorf("allow should apply for treatment: %+v", d)
	}
}

func TestDecidePicksStrongestGrant(t *testing.T) {
	pt := DefaultPurposes()
	p, err := NewPolicy("s", Deny,
		Rule{Item: "//x", Purpose: "any", Form: Aggregate, Effect: Allow, MaxLoss: 0.1},
		Rule{Item: "//x", Purpose: "research", Form: Exact, Effect: Allow, MaxLoss: 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decide(Request{"/a/x", "research", Exact}, pt)
	if !d.Allowed || d.MaxLoss != 0.3 {
		t.Errorf("strongest applicable grant should win: %+v", d)
	}
}

func TestDefaultAllow(t *testing.T) {
	pt := DefaultPurposes()
	p, err := NewPolicy("open", Allow)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decide(Request{"/anything", "treatment", Exact}, pt)
	if !d.Allowed || d.Form != Exact || d.MaxLoss != 1 {
		t.Errorf("default allow: %+v", d)
	}
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := NewPolicy("s", Deny, Rule{Item: "//", Purpose: "any"}); err == nil {
		t.Error("bad pattern should fail")
	}
	if _, err := NewPolicy("s", Deny, Rule{Item: "//x", Purpose: "any", MaxLoss: 2}); err == nil {
		t.Error("out-of-range maxloss should fail")
	}
}

func TestCombine(t *testing.T) {
	a := Decision{Allowed: true, MaxLoss: 0.5, Form: Exact, Reason: "a"}
	b := Decision{Allowed: true, MaxLoss: 0.2, Form: Range, Reason: "b"}
	c := Combine(a, b)
	if !c.Allowed || c.MaxLoss != 0.2 || c.Form != Range {
		t.Errorf("Combine = %+v", c)
	}
	deny := Decision{Allowed: false, Reason: "nope"}
	if got := Combine(a, deny, b); got.Allowed {
		t.Errorf("any deny should veto: %+v", got)
	}
	if got := Combine(); got.Allowed {
		t.Error("empty combine should deny")
	}
}

func TestFormLattice(t *testing.T) {
	if !Exact.Permits(Aggregate) || !Exact.Permits(Exact) {
		t.Error("exact should permit everything")
	}
	if Aggregate.Permits(Exact) || Suppressed.Permits(Aggregate) {
		t.Error("weaker forms must not permit stronger")
	}
	for _, f := range []Form{Suppressed, Aggregate, Range, Exact} {
		parsed, err := ParseForm(f.String())
		if err != nil || parsed != f {
			t.Errorf("form round trip %v: %v %v", f, parsed, err)
		}
	}
	if _, err := ParseForm("bogus"); err == nil {
		t.Error("bogus form should fail")
	}
}

func TestPurposeTree(t *testing.T) {
	pt := DefaultPurposes()
	cases := []struct {
		rule, req string
		want      bool
	}{
		{"any", "billing", true},
		{"research", "epidemiology", true},
		{"research", "research", true},
		{"epidemiology", "research", false},
		{"research", "treatment", false},
		{"public-health", "outbreak-control", true},
		{"any", "unknown-purpose", false},
		{"unknown-purpose", "any", false},
	}
	for _, tc := range cases {
		if got := pt.Implies(tc.rule, tc.req); got != tc.want {
			t.Errorf("Implies(%q, %q) = %v, want %v", tc.rule, tc.req, got, tc.want)
		}
	}
	if !pt.Known("any") || pt.Known("zzz") {
		t.Error("Known misbehaves")
	}
	if len(pt.Purposes()) != 10 {
		t.Errorf("purposes = %v", pt.Purposes())
	}
}

func TestNewPurposeTreeValidation(t *testing.T) {
	if _, err := NewPurposeTree("", nil); err == nil {
		t.Error("empty root should fail")
	}
	if _, err := NewPurposeTree("any", map[string]string{"a": "b", "b": "a"}); err == nil {
		t.Error("cycle should fail")
	}
	if _, err := NewPurposeTree("any", map[string]string{"a": "missing"}); err == nil {
		t.Error("dangling parent should fail")
	}
	if _, err := NewPurposeTree("any", map[string]string{"any": "x"}); err == nil {
		t.Error("root with parent should fail")
	}
}

func TestPrivacyView(t *testing.T) {
	v, err := NewPrivacyView("clinical",
		ViewItem{Item: "//patient/dob", Sensitivity: High},
		ViewItem{Item: "//patient/diagnosis", Sensitivity: Medium},
		ViewItem{Item: "//patient//zip", Sensitivity: Low},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := v.Covers("/patients/patient/dob"); !ok || s != High {
		t.Errorf("dob coverage = %v %v", s, ok)
	}
	if _, ok := v.Covers("/patients/patient/height"); ok {
		t.Error("height should be public")
	}
	if _, err := NewPrivacyView("bad", ViewItem{Item: "//"}); err == nil {
		t.Error("bad pattern should fail")
	}
}

func TestPrivacyViewOverlappingItemsTakeMax(t *testing.T) {
	v, err := NewPrivacyView("v",
		ViewItem{Item: "//patient/dob", Sensitivity: Low},
		ViewItem{Item: "//dob", Sensitivity: High},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := v.Covers("/patients/patient/dob"); s != High {
		t.Errorf("overlap should take max sensitivity, got %v", s)
	}
}

func TestPolicyXMLRoundTrip(t *testing.T) {
	p := hospitalPolicy(t)
	back, err := PolicyFromNode(p.ToNode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Owner != p.Owner || back.DefaultEffect != p.DefaultEffect || len(back.Rules) != len(p.Rules) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range p.Rules {
		a, b := p.Rules[i], back.Rules[i]
		if a.Item != b.Item || a.Purpose != b.Purpose || a.Form != b.Form || a.Effect != b.Effect || a.MaxLoss != b.MaxLoss {
			t.Errorf("rule %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Decisions agree.
	pt := DefaultPurposes()
	req := Request{"/patients/patient/diagnosis", "epidemiology", Aggregate}
	if p.Decide(req, pt) != back.Decide(req, pt) {
		t.Error("round-tripped policy decides differently")
	}
}

func TestParsePolicyText(t *testing.T) {
	p, err := ParsePolicy(`
<policy owner="lab" default="deny">
  <rule item="//result/value" purpose="research" form="aggregate" effect="allow" maxloss="0.25"/>
</policy>`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner != "lab" || len(p.Rules) != 1 || p.Rules[0].MaxLoss != 0.25 {
		t.Errorf("parsed = %+v", p)
	}
	for _, bad := range []string{
		`<notpolicy/>`,
		`<policy/>`,
		`<policy owner="x"><rule purpose="any" form="exact" effect="allow"/></policy>`,
		`<policy owner="x"><rule item="//a" purpose="any" form="wat" effect="allow"/></policy>`,
		`<policy owner="x"><rule item="//a" purpose="any" form="exact" effect="wat"/></policy>`,
		`<policy owner="x" default="wat"/>`,
		`<policy owner="x"><rule item="//a" purpose="any" form="exact" effect="allow" maxloss="zz"/></policy>`,
	} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) should fail", bad)
		}
	}
}

func TestPrivacyViewXMLRoundTrip(t *testing.T) {
	v, _ := NewPrivacyView("clinical",
		ViewItem{Item: "//patient/dob", Sensitivity: High},
		ViewItem{Item: "//patient/zip", Sensitivity: Low},
	)
	n := v.ToNode()
	if name, _ := n.Attr("name"); n.Name != "privacyview" || name != "clinical" {
		t.Fatalf("root = <%s name=%q>", n.Name, name)
	}
	items := n.ChildrenNamed("item")
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	path, _ := items[0].Attr("path")
	sens, _ := items[0].Attr("sensitivity")
	if path != "//patient/dob" || sens != "high" {
		t.Errorf("first item = %s %s", path, sens)
	}
}
