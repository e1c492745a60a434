package psi

import (
	"crypto/rand"
	"fmt"
	"testing"
)

// The chunked kernels are checked against the protocol's definition,
// computed inline one item at a time: Blind(x) = H(x)^secret and
// Exponentiate(e) = e^secret, in input order, at any worker count.

func TestBlindMatchesReference(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		items := make([]string, 100)
		for i := range items {
			items[i] = fmt.Sprintf("item-%03d", i)
		}
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
				p, err := NewParty(s, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				p.SetWorkers(w)
				want := make([]Element, len(items))
				for i, x := range items {
					want[i] = s.Exp(s.HashToGroup(nil, x), p.secret)
				}
				// Cold over a prefix, then the whole column twice: the
				// second round mixes table hits with fresh items, the
				// third is all hits.
				rounds := []struct {
					name string
					n    int
				}{{"cold", 40}, {"partly warm", len(items)}, {"warm", len(items)}}
				for _, r := range rounds {
					got := p.Blind(items[:r.n])
					if len(got) != r.n {
						t.Fatalf("%s: %d elements for %d items", r.name, len(got), r.n)
					}
					for i := range got {
						if !s.Equal(got[i], want[i]) {
							t.Fatalf("%s: item %d differs from H(x)^secret", r.name, i)
						}
					}
				}
				blinded, hits, exp := p.Stats()
				if blinded != 240 {
					t.Errorf("blinded = %d, want 240", blinded)
				}
				if hits != 140 {
					t.Errorf("cache hits = %d, want 140 (40 in the second round, 100 in the third)", hits)
				}
				if exp != 0 {
					t.Errorf("exponentiated = %d, want 0", exp)
				}
			})
		}
	})
}

func TestExponentiateMatchesReference(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		peer, err := NewParty(s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]string, 50)
		for i := range items {
			items[i] = fmt.Sprintf("elem-%02d", i)
		}
		elems := peer.Blind(items)
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
				p, err := NewParty(s, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.SetWorkers(w).Exponentiate(elems)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(elems) {
					t.Fatalf("%d elements for %d inputs", len(got), len(elems))
				}
				for i, e := range elems {
					if !s.Equal(got[i], s.Exp(e, p.secret)) {
						t.Fatalf("element %d differs from e^secret", i)
					}
				}
				blinded, hits, exp := p.Stats()
				if blinded != 0 || hits != 0 || exp != uint64(len(elems)) {
					t.Errorf("stats = %d blinded, %d hits, %d exponentiated; want 0, 0, %d",
						blinded, hits, exp, len(elems))
				}
			})
		}
	})
}

// A column holding a bad element is refused whole by the chunked kernel,
// at any worker count: no elements come back and the exponentiated
// counter does not move.
func TestExponentiateBatchRejectsBadElements(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := NewParty(s, rand.Reader)
		items := make([]string, 64)
		for i := range items {
			items[i] = fmt.Sprintf("col-%02d", i)
		}
		good := a.Blind(items)
		bads := badElements(t, s)
		bads["nil"] = nil
		for _, w := range []int{1, 4} {
			a.SetWorkers(w)
			for name, be := range bads {
				withBad := append([]Element{}, good...)
				withBad[len(withBad)/2] = be
				out, err := a.Exponentiate(withBad)
				if err == nil {
					t.Errorf("workers=%d: %s element must be rejected", w, name)
				}
				if out != nil {
					t.Errorf("workers=%d: %s element: %d elements returned with the error", w, name, len(out))
				}
			}
		}
		if _, _, exp := a.Stats(); exp != 0 {
			t.Errorf("exponentiated = %d after only rejected columns, want 0", exp)
		}
	})
}

func TestBlindEmptyAndSerial(t *testing.T) {
	forEachSuite(t, func(t *testing.T, s Suite) {
		a, _ := NewParty(s, rand.Reader)
		if got := a.Blind(nil); len(got) != 0 {
			t.Errorf("empty input returned %d elements", len(got))
		}
		if blinded, _, _ := a.Stats(); blinded != 0 {
			t.Errorf("empty input counted %d items", blinded)
		}
		a.SetWorkers(1)
		out := a.Blind([]string{"only"})
		if len(out) != 1 || out[0] == nil {
			t.Errorf("serial single-item blind = %v", out)
		}
	})
}

// BenchmarkBlind measures a warm round, where every item is a
// precomputation-table hit: chunk dispatch and table locking, not the
// group operation, are the cost.
func BenchmarkBlind(b *testing.B) {
	for _, s := range []Suite{ModPSuite(TestGroup()), P256Suite()} {
		a, err := NewParty(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]string, 4096)
		for i := range items {
			items[i] = fmt.Sprintf("item-%04d", i)
		}
		a.Blind(items) // warm the precomputation table
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Blind(items)
			}
		})
	}
}

// BenchmarkBlindCold measures the cold path per suite — every item is a
// fresh hash-to-group plus a fixed-secret group operation. This is the
// kernel the EC suite exists to accelerate (E25's headline number).
func BenchmarkBlindCold(b *testing.B) {
	for _, s := range []Suite{ModPSuite(TestGroup()), ModPSuite(DefaultGroup()), P256Suite()} {
		b.Run(s.Name(), func(b *testing.B) {
			items := make([]string, 256)
			for i := range items {
				items[i] = fmt.Sprintf("cold-%04d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := NewParty(s, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				a.Blind(items)
			}
		})
	}
}

// BenchmarkExponentiate measures the second message: every element is a
// fresh group operation (peer elements are never cached), so this
// reports elements/s for the chunked kernel.
func BenchmarkExponentiate(b *testing.B) {
	for _, s := range []Suite{ModPSuite(TestGroup()), P256Suite()} {
		a, err := NewParty(s, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]string, 512)
		for i := range items {
			items[i] = fmt.Sprintf("item-%04d", i)
		}
		elems := a.Blind(items)
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Exponentiate(elems); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
