package linkage

import (
	"fmt"
	"testing"

	"privateiye/internal/clinical"
)

var salt = []byte("shared-linkage-secret")

func encoder(t *testing.T) *Encoder {
	t.Helper()
	e, err := NewEncoder(1000, 20, 2, salt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Errorf("count = %d", b.Count())
	}
	if b.Get(1) {
		t.Error("unset bit reads true")
	}
}

func TestDice(t *testing.T) {
	a, b := NewBitset(64), NewBitset(64)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	d, err := Dice(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.5 {
		t.Errorf("dice = %v, want 0.5", d)
	}
	empty1, empty2 := NewBitset(64), NewBitset(64)
	if d, _ := Dice(empty1, empty2); d != 1 {
		t.Errorf("empty dice = %v, want 1", d)
	}
	if _, err := Dice(NewBitset(64), NewBitset(128)); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestEncoderValidation(t *testing.T) {
	for _, bad := range [][3]int{{0, 20, 2}, {100, 0, 2}, {100, 20, 0}} {
		if _, err := NewEncoder(bad[0], bad[1], bad[2], salt); err == nil {
			t.Errorf("params %v should fail", bad)
		}
	}
	if _, err := NewEncoder(100, 20, 2, nil); err == nil {
		t.Error("empty salt should fail")
	}
}

func TestSimilaritySeparatesMatchesFromNonMatches(t *testing.T) {
	e := encoder(t)
	// Same name with a typo scores high.
	typo, err := e.Similarity("Jonathan Smith", "Jonathon Smith")
	if err != nil {
		t.Fatal(err)
	}
	if typo < 0.75 {
		t.Errorf("typo similarity = %v, want >= 0.75", typo)
	}
	// Identical scores 1.
	if s, _ := e.Similarity("Alice Ang", "Alice Ang"); s != 1 {
		t.Errorf("identical similarity = %v", s)
	}
	// Different people score low.
	diff, _ := e.Similarity("Jonathan Smith", "Priya Patel")
	if diff > 0.45 {
		t.Errorf("non-match similarity = %v, want < 0.45", diff)
	}
	if typo-diff < 0.3 {
		t.Errorf("separation too small: %v vs %v", typo, diff)
	}
	// Case-insensitive.
	if s, _ := e.Similarity("ALICE", "alice"); s != 1 {
		t.Errorf("case sensitivity: %v", s)
	}
}

func TestEncodingsRequireSameSalt(t *testing.T) {
	e1 := encoder(t)
	e2, _ := NewEncoder(1000, 20, 2, []byte("different-salt"))
	// Same string, different salts: encodings disagree (dictionary attacks
	// without the salt fail).
	d, err := Dice(e1.Encode("Alice Ang"), e2.Encode("Alice Ang"))
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.5 {
		t.Errorf("different salts should decorrelate: dice = %v", d)
	}
}

func TestSoundex(t *testing.T) {
	cases := map[string]string{
		"Robert":   "R163",
		"Rupert":   "R163",
		"Ashcraft": "A261",
		"Ashcroft": "A261",
		"Tymczak":  "T522",
		"Pfister":  "P236",
		"Honeyman": "H555",
		"":         "0000",
		"a":        "A000",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBlockKey(t *testing.T) {
	// Phonetically equal last names block together.
	if BlockKey(salt, "Alice Smith") != BlockKey(salt, "Bob Smyth") {
		t.Error("Smith and Smyth should share a block")
	}
	if BlockKey(salt, "Alice Smith") == BlockKey(salt, "Alice Patel") {
		t.Error("different last names should split blocks")
	}
	// The key is salted: without the salt the bucket is different.
	if BlockKey(salt, "Alice Smith") == BlockKey([]byte("x"), "Alice Smith") {
		t.Error("block keys must depend on the salt")
	}
}

func TestMatchEndToEnd(t *testing.T) {
	e := encoder(t)
	g := clinical.NewGenerator(31)
	// Build 120 people; right side holds corrupted variants of the first
	// 80 plus 40 strangers.
	var left, right []EncodedRecord
	truth := map[string]string{}
	seen := map[string]bool{}
	var names []string
	for len(names) < 160 {
		n := g.Name()
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for i := 0; i < 120; i++ {
		left = append(left, e.EncodeRecord(fmt.Sprintf("L%d", i), names[i]))
	}
	for i := 0; i < 80; i++ {
		rid := fmt.Sprintf("R%d", i)
		corrupted := g.CorruptName(names[i])
		right = append(right, e.EncodeRecord(rid, corrupted))
		truth[fmt.Sprintf("L%d", i)] = rid
	}
	for i := 120; i < 160; i++ {
		right = append(right, e.EncodeRecord(fmt.Sprintf("R%d", i), names[i]))
	}
	pairs, err := Match(left, right, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(pairs, truth)
	if q.Precision < 0.9 {
		t.Errorf("precision = %v (%d/%d)", q.Precision, q.Hit, q.Found)
	}
	// Corruption can change the blocking token; recall above 0.6 is the
	// realistic bar for single-field blocking, and F1 must hold up.
	if q.Recall < 0.6 {
		t.Errorf("recall = %v (%d/%d)", q.Recall, q.Hit, q.TruePairs)
	}
	if q.F1 < 0.75 {
		t.Errorf("F1 = %v", q.F1)
	}
}

func TestMatchOneToOne(t *testing.T) {
	e := encoder(t)
	left := []EncodedRecord{e.EncodeRecord("L1", "Alice Smith")}
	right := []EncodedRecord{
		e.EncodeRecord("R1", "Alice Smith"),
		e.EncodeRecord("R2", "Alice Smyth"),
	}
	pairs, err := Match(left, right, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].RightID != "R1" {
		t.Errorf("greedy best match failed: %v", pairs)
	}
}

func TestMatchThresholdValidation(t *testing.T) {
	if _, err := Match(nil, nil, 0); err == nil {
		t.Error("threshold 0 should fail")
	}
	if _, err := Match(nil, nil, 1.5); err == nil {
		t.Error("threshold > 1 should fail")
	}
	pairs, err := Match(nil, nil, 0.8)
	if err != nil || len(pairs) != 0 {
		t.Errorf("empty match: %v %v", pairs, err)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	q := Evaluate(nil, nil)
	if q.Precision != 0 || q.Recall != 0 || q.F1 != 0 {
		t.Errorf("empty evaluation: %+v", q)
	}
}
