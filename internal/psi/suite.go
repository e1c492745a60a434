package psi

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
)

// A Suite is a prime-order group with everything the commutative-
// encryption protocol needs from it: a hash-to-group map, application of
// a party's fixed secret (modular exponentiation in the MODP suites,
// scalar multiplication in the curve suites), and a fixed-width
// canonical encoding whose decoder doubles as the membership validator
// at the trust boundary.
//
// Two families ship:
//
//   - modp*: the order-q subgroup of quadratic residues mod a safe prime
//     (RFC 3526 group 14 in production). One group operation is a
//     2048-bit modular exponentiation; one element is 256 bytes.
//   - p256: the NIST P-256 curve (stdlib crypto/elliptic, cofactor 1, so
//     on-curve = in-subgroup). One group operation is a 256-bit scalar
//     multiplication; one element is a 33-byte compressed point. This is
//     the fast default: ~10x cheaper per operation and ~8x smaller on
//     the wire than modp2048.
//
// Both ends of a protocol round must run the same suite — elements are
// meaningless across suites, which is why the wire envelope names its
// suite and the mediator negotiates one per fleet (see internal/mediator).
type Suite interface {
	// Name is the suite's wire identifier ("modp2048", "p256", ...).
	Name() string
	// ElementSize is the exact width in bytes of a canonically encoded
	// element. Every element of the suite encodes to this many bytes;
	// DecodeElement rejects any other length.
	ElementSize() int
	// NewSecret draws a uniform secret scalar in [1, order-1] from rng.
	NewSecret(rng io.Reader) (Secret, error)
	// HashToGroup maps an arbitrary item into the prime-order group.
	// sc's buffers are reused across calls (pass nil for a one-shot
	// call; hot loops should carry one Scratch per goroutine).
	HashToGroup(sc *Scratch, item string) Element
	// Exp applies a secret to an element: modexp or scalar mult. The
	// element must belong to this suite.
	Exp(e Element, s Secret) Element
	// AppendElement appends the canonical fixed-width encoding of e to
	// dst and returns the extended slice.
	AppendElement(dst []byte, e Element) []byte
	// DecodeElement parses exactly one canonical encoding, validating
	// membership: wrong width, out-of-range values, the identity,
	// off-curve points and non-subgroup residues are all rejected. It
	// never panics, whatever the input.
	DecodeElement(data []byte) (Element, error)
	// Validate checks that e is a well-formed non-identity member of the
	// suite's group (the in-process counterpart of DecodeElement, for
	// elements that arrived as values rather than bytes).
	Validate(e Element) error
	// Equal reports whether two elements of this suite are equal.
	Equal(a, b Element) bool
}

// Element is one group element. The concrete type is owned by the suite
// that produced it (*ModPElem for the MODP suites, *ECPoint for the
// curve suites); elements never cross suites.
type Element interface{ psiElement() }

// Secret is one party's fixed secret scalar, owned by its suite.
type Secret interface{ psiSecret() }

// Scratch holds reusable hash-to-group buffers: one SHA-256 state and
// one expansion buffer, both recycled across calls so the hot path
// allocates only the element it returns. Not safe for concurrent use;
// the Blind kernel carries one per worker chunk.
type Scratch struct {
	h   hash.Hash
	buf []byte
}

// NewScratch returns an empty scratch buffer.
func NewScratch() *Scratch { return &Scratch{h: sha256.New()} }

// Suite wire names.
const (
	// SuiteNameP256 is the elliptic-curve suite, the fast default.
	SuiteNameP256 = "p256"
	// SuiteNameModP2048 is the production safe-prime suite and the
	// fail-closed floor every deployment supports.
	SuiteNameModP2048 = "modp2048"
	// SuiteNameModP768 is the fast test-only safe-prime suite, below
	// the floor MeetsFloor enforces at every process boundary.
	SuiteNameModP768 = "modp768"
)

// DefaultSuiteName is the suite a fleet negotiates when every member
// supports it.
const DefaultSuiteName = SuiteNameP256

// SuiteByName resolves a wire name to its suite. Unknown names are an
// error, not a panic: names arrive from flags and from peers.
func SuiteByName(name string) (Suite, error) {
	switch name {
	case SuiteNameP256:
		return P256Suite(), nil
	case SuiteNameModP2048:
		return ModPSuite(DefaultGroup()), nil
	case SuiteNameModP768:
		return ModPSuite(TestGroup()), nil
	}
	return nil, fmt.Errorf("psi: unknown suite %q", name)
}

// MeetsFloor reports whether a suite is strong enough to leave the
// process: p256 and modp2048 are. modp768, the 768-bit TestGroup, is for
// in-process tests only; a fleet never negotiates it and a source never
// serves it over the wire.
func MeetsFloor(name string) bool {
	return name == SuiteNameP256 || name == SuiteNameModP2048
}

// TestSuite returns the fast MODP suite tests and demos use when they
// specifically need the safe-prime code path (for the curve path they
// can just use P256Suite, which is fast everywhere).
func TestSuite() Suite { return ModPSuite(TestGroup()) }
