// Command piye-bench runs the PRIVATE-IYE experiment harness: every table
// and figure of EXPERIMENTS.md, printed as aligned text tables. E1–E4
// regenerate the paper's Figure 1; E5–E25 measure the architecture's
// design choices.
//
// Usage:
//
//	piye-bench                                  # run everything
//	piye-bench -only E7                         # run one experiment
//	piye-bench -quick                           # smaller workloads
//	piye-bench -update-baseline bench/baseline.json   # record perf-guard baseline
//	piye-bench -guard bench/baseline.json             # fail on >10% regression
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"privateiye/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only the named experiment (E1..E25)")
	quick := flag.Bool("quick", false, "smaller workloads")
	guard := flag.String("guard", "", "compare the perf-guard metrics against this baseline JSON and exit 1 on regression")
	updateBaseline := flag.String("update-baseline", "", "measure the perf-guard metrics and write them to this baseline JSON")
	guardTol := flag.Float64("guard-tolerance", 0.10, "relative slowdown the guard tolerates before failing")
	flag.Parse()

	// Rounds must be long enough that scheduler noise averages out: at
	// ~3µs per cached query, 2000 queries is still only ~6ms per round,
	// and the guard keeps the best of 7.
	guardQueries, guardRounds := 2000, 7
	if *quick {
		guardQueries, guardRounds = 300, 3
	}
	if *updateBaseline != "" {
		if err := experiments.WriteBaseline(*updateBaseline, guardQueries, guardRounds); err != nil {
			fmt.Fprintf(os.Stderr, "piye-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("piye-bench: baseline written to %s\n", *updateBaseline)
		return
	}
	if *guard != "" {
		tab, failed, err := experiments.CheckBaseline(*guard, guardQueries, guardRounds, *guardTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piye-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(tab)
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "piye-bench: perf regression in %v (> %.0f%% over baseline)\n", failed, *guardTol*100)
			os.Exit(1)
		}
		return
	}

	type exp struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	wrap := func(f func() (*experiments.Table, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) { return f() }
	}

	sizes := []int{1000, 10000, 100000}
	ks := []int{2, 5, 10, 25, 50}
	psiSizes := []int{100, 300, 1000}
	sourceCounts := []int{2, 4, 8}
	repeats, queriesPer, workload := 60, 10, 420
	if *quick {
		sizes = []int{500, 2000}
		ks = []int{2, 10}
		psiSizes = []int{60, 200}
		sourceCounts = []int{2, 4}
		repeats, queriesPer, workload = 12, 3, 140
	}

	exps := []exp{
		{"E1", wrap(experiments.Fig1a)},
		{"E2", wrap(experiments.Fig1b)},
		{"E3", wrap(experiments.Fig1c)},
		{"E4", func() (fmt.Stringer, error) {
			r, err := experiments.Fig1d(!*quick)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"E5", wrap(func() (*experiments.Table, error) { return experiments.E5RewriteVsFilter(sizes) })},
		{"E6", wrap(func() (*experiments.Table, error) { return experiments.E6ClusterRouting(workload) })},
		{"E7", wrap(func() (*experiments.Table, error) {
			return experiments.E7KAnonymity(sizes[:len(sizes)-1], ks)
		})},
		{"E8", wrap(func() (*experiments.Table, error) {
			return experiments.E8Perturbation([]float64{0.5, 1, 2, 4, 8, 16})
		})},
		{"E9", wrap(func() (*experiments.Table, error) { return experiments.E9PSI(psiSizes) })},
		{"E10", wrap(func() (*experiments.Table, error) { return experiments.E10Warehouse(repeats) })},
		{"E11", wrap(experiments.E11Audit)},
		{"E12", wrap(func() (*experiments.Table, error) { return experiments.E12Fragmenter(8) })},
		{"E13", wrap(func() (*experiments.Table, error) {
			return experiments.E13EndToEnd(sourceCounts, queriesPer)
		})},
		{"E14", wrap(experiments.E14SchemaMatch)},
		{"E15", wrap(experiments.E15ReleaseLedger)},
		{"E16", wrap(func() (*experiments.Table, error) {
			n := 200000
			if *quick {
				n = 20000
			}
			return experiments.E16PlacementAblation(n)
		})},
		{"E17", wrap(func() (*experiments.Table, error) {
			n := 40
			if *quick {
				n = 12
			}
			return experiments.E17Resilience(n)
		})},
		{"E18", wrap(func() (*experiments.Table, error) {
			counts := []int{500, 2000, 8000}
			if *quick {
				counts = []int{200, 800}
			}
			return experiments.E18Durability(counts)
		})},
		{"E19", wrap(func() (*experiments.Table, error) {
			items, warmQueries := 1000, 20
			if *quick {
				items, warmQueries = 200, 5
			}
			return experiments.E19Parallelism(items, []int{1, 2, 4, 8}, warmQueries)
		})},
		{"E20", wrap(func() (*experiments.Table, error) {
			queries, rounds := 300, 5
			if *quick {
				queries, rounds = 60, 3
			}
			return experiments.E20ObsOverhead(queries, rounds)
		})},
		{"E21", wrap(func() (*experiments.Table, error) {
			svc, total := 4*time.Millisecond, 160
			if *quick {
				svc, total = 2*time.Millisecond, 60
			}
			return experiments.E21AdmissionOverload(svc, total)
		})},
		{"E22", wrap(func() (*experiments.Table, error) {
			total := 200
			if *quick {
				total = 60
			}
			return experiments.E22ReplicationFailover(total)
		})},
		{"E23", wrap(func() (*experiments.Table, error) {
			appendsPer, bursts, burstSize := 40, 6, 16
			if *quick {
				appendsPer, bursts, burstSize = 10, 3, 8
			}
			return experiments.E23Amortization(appendsPer, bursts, burstSize)
		})},
		{"E24", wrap(func() (*experiments.Table, error) {
			// Quick mode trims queries, not clients: fewer clients
			// would make the sweep client-bound and understate the
			// scaling the acceptance bar checks.
			clients, queriesPer := 32, 40
			if *quick {
				clients, queriesPer = 32, 10
			}
			return experiments.E24RouterScaling(clients, queriesPer, []int{1, 2, 4})
		})},
		{"E25", wrap(func() (*experiments.Table, error) {
			suiteSizes, modpCap := []int{1000, 10000}, 256
			if *quick {
				suiteSizes, modpCap = []int{300, 1000}, 64
			}
			return experiments.E25PSISuites(suiteSizes, modpCap)
		})},
	}

	ran := 0
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.name) {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "piye-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "piye-bench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
