package e2e

import (
	"context"
	"testing"
	"time"

	"privateiye/internal/clinical"
	"privateiye/internal/mediator"
	"privateiye/internal/policy"
	"privateiye/internal/preserve"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"

	"net/http/httptest"
)

// suiteNode serves one compliance source over HTTP with an explicit PSI
// suite advertisement (nil = the default: p256 preferred, modp2048
// floor). It models the fleet-upgrade scenario: a node still running the
// pre-curve build advertises only its MODP group.
func suiteNode(t *testing.T, name string, advertised []string) *httptest.Server {
	t.Helper()
	tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
	if err != nil {
		t.Fatal(err)
	}
	cat := relational.NewCatalog()
	if err := cat.Add(tab); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewPolicy(name, policy.Deny,
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{Name: name, Catalog: cat, Policy: pol, Registry: preserve.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	local, err := source.NewLocal(src, salt, psi.DefaultGroup())
	if err != nil {
		t.Fatal(err)
	}
	local.AdvertisedSuites = advertised
	srv := httptest.NewServer(source.NewHandler(local))
	t.Cleanup(srv.Close)
	return srv
}

func suiteMediator(t *testing.T, nodes map[string]*httptest.Server) *mediator.Mediator {
	t.Helper()
	var eps []source.Endpoint
	for name, srv := range nodes {
		eps = append(eps, source.NewClient(srv.URL, name))
	}
	med, err := mediator.New(mediator.Config{
		Endpoints:     eps,
		LinkageSalt:   salt,
		SourceTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return med
}

// TestMixedSuiteFleetNegotiatesDown is the interop acceptance test for
// the suite rollout: one legacy MODP-only source and one current source
// behind an EC-preferring mediator. The fleet must negotiate down to
// the legacy group, private overlap must still be exact, and ordinary
// mediated queries must keep answering — a mixed fleet degrades, it
// does not break.
func TestMixedSuiteFleetNegotiatesDown(t *testing.T) {
	legacy := suiteNode(t, "legacy", []string{psi.SuiteNameModP2048})
	modern := suiteNode(t, "modern", nil)
	med := suiteMediator(t, map[string]*httptest.Server{"legacy": legacy, "modern": modern})

	if got := med.PSISuite(); got != psi.SuiteNameModP2048 {
		t.Fatalf("negotiated suite = %q, want %q (the legacy source cannot do better)", got, psi.SuiteNameModP2048)
	}

	ctx := context.Background()
	n, err := med.Overlap(ctx, "legacy", "modern", "hmo")
	if err != nil {
		t.Fatalf("overlap on the downgraded suite: %v", err)
	}
	if n != len(clinical.HMOs) {
		t.Fatalf("overlap = %d distinct hmo values, want %d", n, len(clinical.HMOs))
	}

	// The protocol messages really are in the negotiated group: the
	// envelope names it and every element is one 2048-bit residue.
	cli := source.NewClient(legacy.URL, "legacy")
	elems, err := cli.PSIBlinded(ctx, "hmo", med.PSISuite())
	if err != nil {
		t.Fatal(err)
	}
	if got := psi.WireSuiteName(elems); got != psi.SuiteNameModP2048 {
		t.Fatalf("envelope suite = %q, want %q", got, psi.SuiteNameModP2048)
	}
	for _, e := range elems.ChildrenNamed("e") {
		if len(e.Text) != 2*256 {
			t.Fatalf("element width %d hex chars, want %d", len(e.Text), 2*256)
		}
	}

	// And the rest of the mediation pipeline is untouched by the
	// downgrade: an aggregate query still answers through both sources.
	out, err := med.Query(perTestQuery, "analyst")
	if err != nil {
		t.Fatalf("mediated query on the mixed fleet: %v", err)
	}
	if len(out.Answered) != 2 {
		t.Fatalf("answered sources = %v, want both", out.Answered)
	}
}

// TestMixedSuiteFleetNeverNegotiatesModP768: the 768-bit test group is
// below the strength floor. A source that advertises only it does not
// drag the fleet down, even when every other source offers the weak
// group too; negotiation fails closed to modp2048, private overlap with
// that source is refused rather than run in the weak group, and the
// source's HTTP handler refuses to serve the weak group to a caller who
// asks for it directly.
func TestMixedSuiteFleetNeverNegotiatesModP768(t *testing.T) {
	weak := suiteNode(t, "weak", []string{psi.SuiteNameModP768})
	modern := suiteNode(t, "modern", []string{psi.SuiteNameP256, psi.SuiteNameModP768})
	med := suiteMediator(t, map[string]*httptest.Server{"weak": weak, "modern": modern})

	if got := med.PSISuite(); got != psi.SuiteNameModP2048 {
		t.Fatalf("negotiated suite = %q, want the fail-closed floor %q", got, psi.SuiteNameModP2048)
	}
	ctx := context.Background()
	if n, err := med.Overlap(ctx, "weak", "modern", "hmo"); err == nil {
		t.Fatalf("overlap with a modp768-only source answered %d; want a refusal", n)
	}

	cli := source.NewClient(weak.URL, "weak")
	if _, err := cli.PSIBlinded(ctx, "hmo", psi.SuiteNameModP768); err == nil {
		t.Fatal("blinded column served in modp768 over the wire")
	}
	if _, err := cli.PSIBlinded(ctx, "hmo", ""); err == nil {
		t.Fatal("blinded column served in the source's default modp768 over the wire")
	}
	envelope := psi.MarshalElems(psi.TestSuite(), []psi.Element{psi.TestSuite().HashToGroup(nil, "HMO1")})
	if _, err := cli.PSIExponentiate(ctx, envelope); err == nil {
		t.Fatal("modp768 envelope exponentiated over the wire")
	}
}

// TestMixedSuiteAllECFleetPrefersP256 is the matching upgrade-complete
// case: when every source advertises the curve, negotiation picks it
// and the wire carries 33-byte compressed points.
func TestMixedSuiteAllECFleetPrefersP256(t *testing.T) {
	a := suiteNode(t, "alpha", nil)
	b := suiteNode(t, "beta", nil)
	med := suiteMediator(t, map[string]*httptest.Server{"alpha": a, "beta": b})

	if got := med.PSISuite(); got != psi.SuiteNameP256 {
		t.Fatalf("negotiated suite = %q, want %q", got, psi.SuiteNameP256)
	}

	ctx := context.Background()
	n, err := med.Overlap(ctx, "alpha", "beta", "hmo")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(clinical.HMOs) {
		t.Fatalf("overlap = %d, want %d", n, len(clinical.HMOs))
	}

	cli := source.NewClient(a.URL, "alpha")
	elems, err := cli.PSIBlinded(ctx, "hmo", med.PSISuite())
	if err != nil {
		t.Fatal(err)
	}
	if got := psi.WireSuiteName(elems); got != psi.SuiteNameP256 {
		t.Fatalf("envelope suite = %q, want %q", got, psi.SuiteNameP256)
	}
	for _, e := range elems.ChildrenNamed("e") {
		if len(e.Text) != 2*33 {
			t.Fatalf("element width %d hex chars, want %d (compressed point)", len(e.Text), 2*33)
		}
	}
}
