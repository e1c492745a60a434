package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of the repository's BENCHMARK.json the program must
// honour: the workload names and every metric's name and unit.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs one workload briefly with a single set-up and returns
// its result line and the report above it.
func runShort(t *testing.T, o options) (resultOut, string) {
	t.Helper()
	o.seed, o.setups, o.stateRoot = 7, 1, t.TempDir()
	var out bytes.Buffer
	if err := bench(o, &out); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", o.workload, err)
	}
	return res, out.String()
}

func checkMetrics(t *testing.T, name string, got map[string]metricOut, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d: %v", name, len(got), len(want), got)
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: no %s", name, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: %s unit %q, want %q", name, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestEveryWorkloadPrintsItsMetrics runs each workload of BENCHMARK.json
// untraced and traced, and checks that each prints every metric the file
// names, with its unit, with every answer checked correct.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		res, _ := runShort(t, options{workload: w.Name, seconds: 1})
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.Name, res.Metrics, s.EndToEnd)
		for _, m := range s.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}

		res, report := runShort(t, options{workload: w.Name, seconds: 2, trace: true})
		if !res.Correct {
			t.Errorf("%s traced: %d of %d failed", w.Name, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.Name+" traced", res.Metrics, s.PerLayer)
		for _, want := range []string{"stamp: ", "residuals", "tracing overhead", "p99_ms", "source.serve "} {
			if !strings.Contains(report, want) {
				t.Errorf("%s traced report lacks %q:\n%s", w.Name, want, report)
			}
		}
	}
}

// TestTamperedAnswersCountAsFailures alters each answer after it arrives
// (avg_rate on Figure 1(a), the overlap off by one) and checks the run
// counts every timed op as failed.
func TestTamperedAnswersCountAsFailures(t *testing.T) {
	for _, name := range []string{"agg-fresh", "psi-overlap"} {
		res, report := runShort(t, options{workload: name, seconds: 1, tamper: true})
		if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%t attempted=%d failed=%d, want every op failed", name, res.Correct, res.Attempted, res.Failed)
		}
		if !strings.Contains(report, "fail_ratio 1.0000") {
			t.Errorf("%s: report does not show fail_ratio 1:\n%s", name, report)
		}
	}
}
