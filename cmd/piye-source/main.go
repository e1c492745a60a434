// Command piye-source runs one PRIVATE-IYE remote source as an HTTP node.
// It hosts a demo clinical dataset (or the Figure 1 compliance table, or
// an outbreak surveillance stream), loads its privacy policy from an XML
// file or uses a conservative default, and serves the source protocol:
// /summary, /profiles, /query, /psi/*.
//
// Usage:
//
//	piye-source -name hospitalA -addr :7101 -dataset patients -rows 1000
//	piye-source -name integrator -addr :7102 -dataset compliance
//	piye-source -name surveillance -addr :7103 -dataset outbreak -policy policy.xml
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"privateiye/internal/admission"
	"privateiye/internal/clinical"
	"privateiye/internal/obs"
	"privateiye/internal/policy"
	"privateiye/internal/psi"
	"privateiye/internal/relational"
	"privateiye/internal/source"
)

// defaultSalt is the published placeholder linkage secret: fine for
// demos, a linking oracle in production.
const defaultSalt = "privateiye-default-linking-salt"

func main() {
	name := flag.String("name", "hospitalA", "source name")
	addr := flag.String("addr", ":7101", "listen address")
	dataset := flag.String("dataset", "patients", "dataset: patients | compliance | outbreak")
	rows := flag.Int("rows", 1000, "dataset size (patients/outbreak days)")
	seed := flag.Uint64("seed", 1, "data generator seed")
	policyFile := flag.String("policy", "", "privacy policy XML file (default: built-in research policy)")
	prefFiles := flag.String("preferences", "", "comma-separated data-subject preference XML files")
	salt := flag.String("salt", defaultSalt, "shared linkage salt")
	psiSuite := flag.String("psi-suite", psi.DefaultSuiteName, "PSI ciphersuite to prefer: p256 (fast EC default) | modp2048 (pins this source to the safe-prime group — it advertises nothing else, so the fleet negotiates down to it)")
	workers := flag.Int("workers", 0, "worker pool size for compute kernels (0 = GOMAXPROCS, 1 = serial)")
	coalesce := flag.Bool("coalesce", false, "merge concurrent identical whole-column linkage calls (PSI blinds, Bloom encodings) into one shared computation")
	planCache := flag.Int("plan-cache", 256, "parse/plan cache capacity in entries (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /metrics, /debug/trace and /debug/pprof (empty = pprof off; /metrics and /debug/trace are always on -addr)")
	traceRing := flag.Int("trace-ring", obs.DefaultTraceRing, "finished per-query traces kept for /debug/trace (0 = tracing off)")
	admitMax := flag.Int("admit-max-concurrent", 0, "hard ceiling on concurrent query executions; sheds answer 503 with Retry-After (0 = no concurrency limit)")
	admitMin := flag.Int("admit-min-concurrent", 1, "AIMD floor of the adaptive concurrency limit")
	admitQueue := flag.Int("admit-queue", 0, "admission queue capacity (0 = 2x ceiling, negative = shed immediately at the limit)")
	admitTarget := flag.Duration("admit-latency-target", 0, "execution latency above which AIMD halves the concurrency limit (0 = only deadline misses count)")
	admitRate := flag.Float64("admit-rate", 0, "per-requester token-bucket refill in queries/sec; excess answers 429 (0 = no rate limit)")
	admitBurst := flag.Float64("admit-burst", 0, "per-requester token-bucket burst capacity (0 = max(rate, 1))")
	flag.Parse()

	if *salt == defaultSalt {
		log.Printf("piye-source %s: WARNING: -salt is the published default; anyone can forge or link Bloom-encoded identifiers. Set a deployment-specific secret shared with the mediator.", *name)
	}

	cat := relational.NewCatalog()
	g := clinical.NewGenerator(*seed)
	switch *dataset {
	case "patients":
		tab, err := g.Patients("patients", *rows, 4)
		if err != nil {
			log.Fatalf("piye-source: %v", err)
		}
		must(cat.Add(tab))
	case "compliance":
		tab, err := clinical.ComplianceTable("compliance", clinical.HMOs, clinical.Tests, clinical.Figure1GroundTruth())
		if err != nil {
			log.Fatalf("piye-source: %v", err)
		}
		must(cat.Add(tab))
	case "outbreak":
		tab, err := g.Outbreak("events", *rows)
		if err != nil {
			log.Fatalf("piye-source: %v", err)
		}
		must(cat.Add(tab))
	default:
		log.Fatalf("piye-source: unknown dataset %q", *dataset)
	}

	pol, err := loadPolicy(*policyFile, *name)
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}

	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	var tracer *obs.Tracer
	if *traceRing > 0 {
		tracer = obs.NewTracer(*traceRing)
	}
	var admit *admission.Config
	if *admitMax > 0 || *admitRate > 0 {
		admit = &admission.Config{
			MaxConcurrent: *admitMax,
			MinConcurrent: *admitMin,
			QueueCapacity: *admitQueue,
			LatencyTarget: *admitTarget,
			RatePerSec:    *admitRate,
			Burst:         *admitBurst,
		}
	}
	src, err := source.New(source.Config{Name: *name, Catalog: cat, Policy: pol, Seed: *seed, Workers: *workers, PlanCache: *planCache, Obs: reg, Trace: tracer, Admission: admit})
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}
	if *prefFiles != "" {
		for _, f := range strings.Split(*prefFiles, ",") {
			data, err := os.ReadFile(strings.TrimSpace(f))
			if err != nil {
				log.Fatalf("piye-source: reading preference %s: %v", f, err)
			}
			pref, err := policy.ParsePolicy(string(data))
			if err != nil {
				log.Fatalf("piye-source: preference %s: %v", f, err)
			}
			if err := src.AddPreference(pref); err != nil {
				log.Fatalf("piye-source: %v", err)
			}
			log.Printf("piye-source %s: registered preference policy of %s", *name, pref.Owner)
		}
	}
	local, err := source.NewLocal(src, []byte(*salt), psi.DefaultGroup())
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}
	local.Coalesce = *coalesce
	if !psi.MeetsFloor(*psiSuite) {
		log.Fatalf("piye-source: -psi-suite %q: want p256 or modp2048", *psiSuite)
	}
	if *psiSuite != psi.SuiteNameP256 {
		// A MODP-pinned source advertises only its pinned suite; a mixed
		// fleet behind an EC-preferring mediator then negotiates down to
		// it instead of failing mid-protocol.
		local.AdvertisedSuites = []string{*psiSuite}
	}

	log.Printf("piye-source %s serving %s (%s) on %s", *name, *dataset, pol.Owner, *addr)
	if *debugAddr != "" {
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugHandler(reg, tracer),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("piye-source %s debug surface (pprof, metrics, traces) on %s", *name, *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("piye-source: debug server: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           source.NewHandler(local),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("piye-source: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("piye-source %s: shutting down, draining in-flight requests", *name)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatalf("piye-source: shutdown: %v", err)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatalf("piye-source: %v", err)
	}
}

// loadPolicy reads a policy XML file, or returns the built-in default: a
// research-oriented policy that shares demographics exactly, zip codes as
// ranges, diagnoses and rates only in aggregate, and denies identifiers.
func loadPolicy(path, owner string) (*policy.Policy, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading policy: %w", err)
		}
		return policy.ParsePolicy(string(data))
	}
	return policy.NewPolicy(owner, policy.Deny,
		policy.Rule{Item: "//row/age", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/sex", Purpose: "any", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/zip", Purpose: "research", Form: policy.Range, Effect: policy.Allow, MaxLoss: 0.7},
		policy.Rule{Item: "//row/diagnosis", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.5},
		policy.Rule{Item: "//row/name", Purpose: "treatment", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
		policy.Rule{Item: "//row/id", Purpose: "any", Effect: policy.Deny},
		policy.Rule{Item: "//compliance//*", Purpose: "research", Form: policy.Aggregate, Effect: policy.Allow, MaxLoss: 0.8},
		policy.Rule{Item: "//events//*", Purpose: "public-health", Form: policy.Exact, Effect: policy.Allow, MaxLoss: 0.9},
	)
}
