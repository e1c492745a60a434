package accesscontrol

import "testing"

func TestRBACBasic(t *testing.T) {
	r := NewRBAC()
	if err := r.Grant("nurse", Read, "//patient/name"); err != nil {
		t.Fatal(err)
	}
	if err := r.Grant("physician", Read, "//patient//*"); err != nil {
		t.Fatal(err)
	}
	if err := r.Grant("physician", Write, "//patient/treatment"); err != nil {
		t.Fatal(err)
	}
	r.Assign("alice", "nurse")
	r.Assign("bob", "physician")

	if !r.Can("alice", Read, "/hospital/patient/name") {
		t.Error("nurse should read name")
	}
	if r.Can("alice", Read, "/hospital/patient/diagnosis") {
		t.Error("nurse should not read diagnosis")
	}
	if r.Can("alice", Write, "/hospital/patient/name") {
		t.Error("read grant must not imply write")
	}
	if !r.Can("bob", Read, "/hospital/patient/diagnosis") {
		t.Error("physician should read diagnosis")
	}
	if !r.Can("bob", Write, "/hospital/patient/treatment") {
		t.Error("physician should write treatment")
	}
	if r.Can("carol", Read, "/hospital/patient/name") {
		t.Error("unknown subject should be denied")
	}
}

func TestRBACBadPattern(t *testing.T) {
	r := NewRBAC()
	if err := r.Grant("x", Read, "//"); err == nil {
		t.Error("bad pattern should fail")
	}
}

func TestMLSReadWrite(t *testing.T) {
	m := NewMLS()
	if err := m.Classify("//patient/diagnosis", Confidential); err != nil {
		t.Fatal(err)
	}
	if err := m.Classify("//patient/ssn", Secret); err != nil {
		t.Fatal(err)
	}
	m.SetClearance("alice", Internal)
	m.SetClearance("bob", Confidential)

	// No read up.
	if m.CanRead("alice", "/h/patient/diagnosis") {
		t.Error("internal clearance must not read confidential")
	}
	if !m.CanRead("bob", "/h/patient/diagnosis") {
		t.Error("confidential clearance should read confidential")
	}
	if m.CanRead("bob", "/h/patient/ssn") {
		t.Error("confidential must not read secret")
	}
	// Unclassified items are public: everyone reads.
	if !m.CanRead("alice", "/h/patient/name") {
		t.Error("public items readable by all")
	}
	// No write down.
	if m.CanWrite("bob", "/h/patient/name") {
		t.Error("confidential subject must not write public item")
	}
	if !m.CanWrite("alice", "/h/patient/diagnosis") {
		t.Error("internal subject may write up to confidential")
	}
	// Unknown subject is Public: reads public only.
	if m.CanRead("zz", "/h/patient/diagnosis") {
		t.Error("unknown subject should have public clearance")
	}
}

func TestMLSHighestClassificationWins(t *testing.T) {
	m := NewMLS()
	if err := m.Classify("//patient//*", Internal); err != nil {
		t.Fatal(err)
	}
	if err := m.Classify("//ssn", Secret); err != nil {
		t.Fatal(err)
	}
	if got := m.LevelOf("/h/patient/ssn"); got != Secret {
		t.Errorf("level = %v, want secret", got)
	}
	if got := m.LevelOf("/h/patient/name"); got != Internal {
		t.Errorf("level = %v, want internal", got)
	}
	if err := m.Classify("//", Secret); err == nil {
		t.Error("bad pattern should fail")
	}
}

func TestStoreCombines(t *testing.T) {
	s := NewStore()
	if err := s.RBAC.Grant("physician", Read, "//patient//*"); err != nil {
		t.Fatal(err)
	}
	s.RBAC.Assign("bob", "physician")
	if err := s.MLS.Classify("//patient/ssn", Secret); err != nil {
		t.Fatal(err)
	}
	s.MLS.SetClearance("bob", Confidential)

	if !s.Check("bob", Read, "/h/patient/diagnosis") {
		t.Error("RBAC+MLS should both pass for diagnosis")
	}
	// RBAC passes but MLS blocks.
	if s.Check("bob", Read, "/h/patient/ssn") {
		t.Error("MLS should block secret item")
	}
	// MLS passes but RBAC blocks.
	if s.Check("intruder", Read, "/h/patient/diagnosis") {
		t.Error("RBAC should block unassigned subject")
	}
	// Write path consults star property.
	if err := s.RBAC.Grant("physician", Write, "//patient/ssn"); err != nil {
		t.Fatal(err)
	}
	if !s.Check("bob", Write, "/h/patient/ssn") {
		t.Error("write up should be permitted by star property")
	}
}

func TestActionAndLevelStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("action names")
	}
	for l, want := range map[Level]string{
		Public: "public", Internal: "internal", Confidential: "confidential", Secret: "secret",
	} {
		if l.String() != want {
			t.Errorf("level %d = %q", int(l), l.String())
		}
	}
}
