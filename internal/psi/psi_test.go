package psi

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

// testSuites is the per-suite matrix: every protocol-level test runs
// over both group families (the fast MODP test group stands in for
// modp2048, which shares all code with it).
func testSuites() []Suite {
	return []Suite{ModPSuite(TestGroup()), P256Suite()}
}

func forEachSuite(t *testing.T, f func(t *testing.T, s Suite)) {
	t.Helper()
	for _, s := range testSuites() {
		t.Run(s.Name(), func(t *testing.T) { f(t, s) })
	}
}

func parties(t *testing.T, s Suite) (*Party, *Party) {
	t.Helper()
	a, err := NewParty(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewParty(s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// badElements returns suite elements that Validate/Exponentiate must
// reject: the identity, out-of-range values, and non-members (a
// quadratic non-residue for MODP, an off-curve point for p256).
func badElements(t *testing.T, s Suite) map[string]Element {
	t.Helper()
	switch s.Name() {
	case SuiteNameP256:
		return map[string]Element{
			"identity":  &ECPoint{X: big.NewInt(0), Y: big.NewInt(0)},
			"off-curve": &ECPoint{X: big.NewInt(1), Y: big.NewInt(1)},
			"nil-coord": &ECPoint{},
		}
	default:
		g := s.(*modpSuite).g
		// 2^q mod p != 1 would make 2 a generator of the full group; for
		// a safe prime, any non-residue works. Find a small non-residue.
		nonRes := big.NewInt(2)
		for big.Jacobi(nonRes, g.P) == 1 {
			nonRes.Add(nonRes, bigOne)
		}
		return map[string]Element{
			"zero":         ModPElemFromInt(big.NewInt(0)),
			"identity":     ModPElemFromInt(big.NewInt(1)),
			"out-of-range": ModPElemFromInt(new(big.Int).Set(g.P)),
			"negative":     ModPElemFromInt(big.NewInt(-5)),
			"non-residue":  ModPElemFromInt(nonRes),
		}
	}
}

func TestGroupsAreSafePrimes(t *testing.T) {
	for name, g := range map[string]*Group{"default": DefaultGroup(), "test": TestGroup()} {
		if !g.P.ProbablyPrime(32) {
			t.Errorf("%s: p not prime", name)
		}
		if !g.Q.ProbablyPrime(32) {
			t.Errorf("%s: q not prime", name)
		}
		// p = 2q + 1.
		back := new(big.Int).Add(new(big.Int).Lsh(g.Q, 1), big.NewInt(1))
		if back.Cmp(g.P) != 0 {
			t.Errorf("%s: p != 2q+1", name)
		}
	}
}

func TestSuiteRegistry(t *testing.T) {
	for _, name := range []string{SuiteNameP256, SuiteNameModP2048, SuiteNameModP768} {
		s, err := SuiteByName(name)
		if err != nil {
			t.Fatalf("SuiteByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("SuiteByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := SuiteByName("modp1024"); err == nil {
		t.Error("unknown suite name should fail")
	}
	if got := ModPSuite(DefaultGroup()).Name(); got != SuiteNameModP2048 {
		t.Errorf("default group suite name = %q", got)
	}
	if got, want := P256Suite().ElementSize(), 33; got != want {
		t.Errorf("p256 element size = %d, want %d", got, want)
	}
	if got, want := ModPSuite(DefaultGroup()).ElementSize(), 256; got != want {
		t.Errorf("modp2048 element size = %d, want %d", got, want)
	}
}

func TestHashToGroupProperties(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a := s.HashToGroup(nil, "alice@example.org")
		b := s.HashToGroup(nil, "bob@example.org")
		if s.Equal(a, b) {
			t.Error("distinct items hash equal")
		}
		if a2 := s.HashToGroup(nil, "alice@example.org"); !s.Equal(a2, a) {
			t.Error("hash not deterministic")
		}
		// Determinism must hold across scratch reuse too.
		sc := NewScratch()
		for _, item := range []string{"x", "y", "", "日本語", "a very long item name with spaces"} {
			h := s.HashToGroup(sc, item)
			if err := s.Validate(h); err != nil {
				t.Errorf("hash of %q invalid: %v", item, err)
			}
			if !s.Equal(h, s.HashToGroup(nil, item)) {
				t.Errorf("scratch reuse changed hash of %q", item)
			}
		}
	})
}

// The MODP hash must land in the prime-order QR subgroup specifically.
func TestHashToGroupSubgroupMembership(t *testing.T) {
	g := TestGroup()
	for _, item := range []string{"x", "y", "", "日本語"} {
		h := g.HashToGroup(item)
		if h.Sign() <= 0 || h.Cmp(g.P) >= 0 {
			t.Errorf("hash out of range for %q", item)
		}
		one := new(big.Int).Exp(h, g.Q, g.P)
		if one.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("hash of %q not in QR subgroup", item)
		}
	}
}

// The p256 hash must land on the curve (cofactor 1, so that IS subgroup
// membership), and its canonical encoding must round-trip.
func TestHashToCurveMembership(t *testing.T) {
	s := P256Suite().(*p256Suite)
	for _, item := range []string{"x", "y", "", "日本語", "patient-4711"} {
		e := s.HashToGroup(nil, item).(*ECPoint)
		if !s.curve.IsOnCurve(e.X, e.Y) {
			t.Errorf("hash of %q is off-curve", item)
		}
		enc := s.AppendElement(nil, e)
		back, err := s.DecodeElement(enc)
		if err != nil {
			t.Fatalf("decode of hash(%q): %v", item, err)
		}
		if !s.Equal(e, back) {
			t.Errorf("hash of %q does not round-trip", item)
		}
	}
}

func TestCommutativity(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		ab, err := b.Exponentiate(a.Blind([]string{"patient-4711"}))
		if err != nil {
			t.Fatal(err)
		}
		ba, err := a.Exponentiate(b.Blind([]string{"patient-4711"}))
		if err != nil {
			t.Fatal(err)
		}
		if !s.Equal(ab[0], ba[0]) {
			t.Error("double blinding does not commute")
		}
	})
}

func TestIntersectBasic(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		itemsA := []string{"alice", "bob", "carol", "dan"}
		itemsB := []string{"carol", "erin", "alice"}
		idx, err := Intersect(a, b, itemsA, itemsB)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, i := range idx {
			got[itemsA[i]] = true
		}
		if len(got) != 2 || !got["alice"] || !got["carol"] {
			t.Errorf("intersection = %v", got)
		}
	})
}

func TestIntersectEdgeCases(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		// Empty sets.
		idx, err := Intersect(a, b, nil, []string{"x"})
		if err != nil || len(idx) != 0 {
			t.Errorf("empty A: %v %v", idx, err)
		}
		idx, err = Intersect(a, b, []string{"x"}, nil)
		if err != nil || len(idx) != 0 {
			t.Errorf("empty B: %v %v", idx, err)
		}
		// Disjoint.
		idx, _ = Intersect(a, b, []string{"p", "q"}, []string{"r", "s"})
		if len(idx) != 0 {
			t.Errorf("disjoint sets intersected: %v", idx)
		}
		// Identical.
		items := []string{"1", "2", "3"}
		idx, _ = Intersect(a, b, items, items)
		if len(idx) != 3 {
			t.Errorf("identical sets: %v", idx)
		}
		// Duplicates on A's side each report.
		idx, _ = Intersect(a, b, []string{"x", "x"}, []string{"x"})
		if len(idx) != 2 {
			t.Errorf("duplicate handling: %v", idx)
		}
	})
}

func TestIntersectDifferentSuitesRejected(t *testing.T) {
	a, _ := NewParty(ModPSuite(TestGroup()), rand.Reader)
	b, _ := NewParty(ModPSuite(DefaultGroup()), rand.Reader)
	if _, err := Intersect(a, b, []string{"x"}, []string{"x"}); err == nil {
		t.Error("mismatched MODP groups should fail")
	}
	c, _ := NewParty(P256Suite(), rand.Reader)
	if _, err := Intersect(a, c, []string{"x"}, []string{"x"}); err == nil {
		t.Error("MODP vs p256 should fail")
	}
}

func TestExponentiateRejectsBadElements(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		// Alone, and at the end of a column of valid elements.
		good := a.Blind([]string{"x", "y"})
		afterGood := func(e Element) []Element { return append(append([]Element{}, good...), e) }
		if _, err := a.Exponentiate([]Element{nil}); err == nil {
			t.Error("nil element should be rejected")
		}
		if _, err := a.Exponentiate(afterGood(nil)); err == nil {
			t.Error("nil element after valid ones should be rejected")
		}
		for name, bad := range badElements(t, s) {
			if _, err := a.Exponentiate([]Element{bad}); err == nil {
				t.Errorf("%s element should be rejected", name)
			}
			if _, err := a.Exponentiate(afterGood(bad)); err == nil {
				t.Errorf("%s element after valid ones should be rejected", name)
			}
			if err := s.Validate(bad); err == nil {
				t.Errorf("Validate should reject %s element", name)
			}
		}
	})
}

func TestNewPartyValidation(t *testing.T) {
	if _, err := NewParty(nil, rand.Reader); err == nil {
		t.Error("nil suite should fail")
	}
	p, err := NewParty(ModPSuite(TestGroup()), nil)
	if err != nil || p == nil {
		t.Fatalf("nil rng should fall back to crypto/rand: %v", err)
	}
	// MODP secret is in [1, q-1].
	sec := (*big.Int)(p.secret.(*modpSecret))
	if sec.Sign() <= 0 || sec.Cmp(TestGroup().Q) >= 0 {
		t.Errorf("modp secret out of range")
	}
	ec, err := NewParty(P256Suite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// EC secret is a fixed-width nonzero scalar below the curve order.
	k := ec.secret.(*ecSecret).k
	if len(k) != p256ScalarSize {
		t.Errorf("ec secret width = %d", len(k))
	}
	kv := new(big.Int).SetBytes(k)
	if kv.Sign() <= 0 || kv.Cmp(p256Singleton.curve.Params().N) >= 0 {
		t.Errorf("ec secret out of range")
	}
}

func TestWireRoundTrip(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		elems := a.Blind([]string{"x", "y", "z"})
		node := MarshalElems(s, elems)
		if got := WireSuiteName(node); got != s.Name() {
			t.Errorf("wire suite attr = %q, want %q", got, s.Name())
		}
		for _, c := range node.ChildrenNamed("e") {
			if len(c.Text) != 2*s.ElementSize() {
				t.Errorf("wire element is %d hex chars, want %d", len(c.Text), 2*s.ElementSize())
			}
		}
		back, err := UnmarshalElems(node, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != 3 {
			t.Fatalf("round trip count = %d", len(back))
		}
		for i := range elems {
			if !s.Equal(elems[i], back[i]) {
				t.Errorf("element %d mismatch", i)
			}
		}
	})
}

func TestWireRejectsBadInput(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := parties(t, s)
		node := MarshalElems(s, a.Blind([]string{"x"}))
		node.Name = "other"
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("wrong root should fail")
		}
		node.Name = "psi-elems"
		canon := node.Children[0].Text
		node.Children[0].Text = "zz-not-hex"
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("bad hex should fail")
		}
		// Uppercase hex of the same value is a second encoding of one
		// element; canonical form is lowercase only.
		node.Children[0].Text = strings.ToUpper(canon)
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("uppercase hex should fail")
		}
		// Overlong: leading-zero padding past the fixed width.
		node.Children[0].Text = "00" + canon
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("overlong encoding should fail")
		}
		// Short: stripped leading zeros.
		node.Children[0].Text = canon[2:]
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("short encoding should fail")
		}
		node.Children[0].Text = canon
		// Suite attribute mismatch fails even when the payload decodes.
		node.SetAttr("suite", "nope")
		if _, err := UnmarshalElems(node, s); err == nil {
			t.Error("suite mismatch should fail")
		}
		node.SetAttr("suite", s.Name())
		if _, err := UnmarshalElems(node, s); err != nil {
			t.Errorf("restored canonical envelope should parse: %v", err)
		}
	})
	// Out-of-range / non-member payloads per suite.
	g := TestGroup()
	ms := ModPSuite(g)
	a, _ := NewParty(ms, rand.Reader)
	node := MarshalElems(ms, a.Blind([]string{"x"}))
	enc := make([]byte, ms.ElementSize())
	g.P.FillBytes(enc)
	node.Children[0].Text = fmt.Sprintf("%x", enc) // == p, out of range
	if _, err := UnmarshalElems(node, ms); err == nil {
		t.Error("out-of-range MODP element should fail")
	}
	node.Children[0].Text = strings.Repeat("0", 2*ms.ElementSize()) // zero
	if _, err := UnmarshalElems(node, ms); err == nil {
		t.Error("zero MODP element should fail")
	}
	ec := P256Suite()
	c, _ := NewParty(ec, rand.Reader)
	node = MarshalElems(ec, c.Blind([]string{"x"}))
	node.Children[0].Text = "04" + strings.Repeat("ab", 32) // bad sign byte
	if _, err := UnmarshalElems(node, ec); err == nil {
		t.Error("bad sign byte should fail")
	}
	// x with no curve point: try x=5's neighborhood — brute-force a
	// non-point by scanning candidates until decode fails.
	found := false
	for x := int64(1); x < 64 && !found; x++ {
		enc := make([]byte, 33)
		enc[0] = 2
		big.NewInt(x).FillBytes(enc[1:])
		if _, err := ec.DecodeElement(enc); err != nil {
			found = true
			node.Children[0].Text = fmt.Sprintf("%x", enc)
			if _, err := UnmarshalElems(node, ec); err == nil {
				t.Error("off-curve x should fail")
			}
		}
	}
	if !found {
		t.Fatal("no off-curve x candidate found in scan range")
	}
}

// Envelopes from peers predating the suite attribute must still parse
// against the MODP suite the receiver was configured with — and must
// NOT parse as p256.
func TestWireLegacyEnvelopeWithoutSuiteAttr(t *testing.T) {
	ms := ModPSuite(TestGroup())
	a, _ := NewParty(ms, rand.Reader)
	node := MarshalElems(ms, a.Blind([]string{"x", "y"}))
	// Simulate a legacy sender: strip the suite attribute.
	delete(node.Attrs, "suite")
	if _, ok := node.Attr("suite"); ok {
		t.Fatal("test setup: suite attr still present")
	}
	back, err := UnmarshalElems(node, ms)
	if err != nil || len(back) != 2 {
		t.Fatalf("legacy envelope should parse against MODP: %v", err)
	}
	if _, err := UnmarshalElems(node, P256Suite()); err == nil {
		t.Error("legacy MODP payload must not parse as p256")
	}
}

// Property: the protocol computes exactly the true intersection for random
// small universes.
func TestIntersectCorrectnessProperty(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := NewParty(s, rand.Reader)
		b, _ := NewParty(s, rand.Reader)
		items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		f := func(maskA, maskB uint8) bool {
			var setA, setB []string
			want := map[string]bool{}
			for i, it := range items {
				inA := maskA&(1<<i) != 0
				inB := maskB&(1<<i) != 0
				if inA {
					setA = append(setA, it)
				}
				if inB {
					setB = append(setB, it)
				}
				if inA && inB {
					want[it] = true
				}
			}
			idx, err := Intersect(a, b, setA, setB)
			if err != nil {
				return false
			}
			got := map[string]bool{}
			for _, i := range idx {
				got[setA[i]] = true
			}
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

// The parallel kernels must produce the exact serial transcript: the
// peer sees identical bytes at any worker count.
func TestParallelBlindMatchesSerial(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]string, 50)
		for i := range items {
			items[i] = fmt.Sprintf("item-%d", i)
		}
		serial := p.SetWorkers(1).Blind(items)
		for _, w := range []int{0, 2, 8} {
			// Fresh party with the same secret path is impossible (random
			// secret), so compare against the same party: results must be
			// identical because H(x)^s is a pure function.
			par := p.SetWorkers(w).Blind(items)
			for i := range serial {
				if !s.Equal(serial[i], par[i]) {
					t.Fatalf("workers=%d: element %d differs", w, i)
				}
			}
		}
	})
}

func TestParallelExponentiateMatchesSerial(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]string, 40)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		elems := peer.Blind(items)
		serial, err := p.SetWorkers(1).Exponentiate(elems)
		if err != nil {
			t.Fatal(err)
		}
		par, err := p.SetWorkers(4).Exponentiate(elems)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !s.Equal(serial[i], par[i]) {
				t.Fatalf("element %d differs between serial and parallel", i)
			}
		}
	})
}

func TestExponentiateRangeErrorIsDeterministic(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		p, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		good := p.Blind([]string{"fine"})
		bad := []Element{good[0], nil, good[0]}
		if _, err := p.SetWorkers(4).Exponentiate(bad); err == nil ||
			!strings.Contains(err.Error(), "element 1") {
			t.Fatalf("want lowest-index validation error, got %v", err)
		}
	})
}

// A warm Blind round must reuse the precomputation table rather than
// redoing group operations; correctness is checked by transcript
// equality and a full protocol round after warming.
func TestBlindPrecomputationTableReuse(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, b := parties(t, s)
		itemsA := []string{"ann", "bob", "eve", "mallory"}
		itemsB := []string{"bob", "eve", "trent"}
		cold := a.Blind(itemsA)
		warm := a.Blind(itemsA)
		for i := range cold {
			// Table hits return the identical element, not a recomputation.
			if cold[i] != warm[i] {
				t.Fatalf("item %d recomputed on warm round", i)
			}
		}
		idx, err := Intersect(a, b, itemsA, itemsB)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 2 || itemsA[idx[0]] != "bob" || itemsA[idx[1]] != "eve" {
			t.Fatalf("intersection after warm rounds = %v", idx)
		}
	})
}
