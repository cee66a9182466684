package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortOpts(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		setups: 1, probeScale: 0.1, outDir: t.TempDir(),
	}
}

// TestSmokeEmitsEveryMetric runs every workload briefly, untraced and
// traced, and checks that it reports exactly the metrics BENCHMARK.json
// names, all finite, with correct results and no failed interaction.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(shortOpts(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.Name, trace, res.correct, res.attempted, res.failed, res.problems)
			}
			var names []string
			for _, m := range want {
				names = append(names, m.Name)
				v, ok := res.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %v %q", w.Name, trace, m.Name, v.Value, v.Unit)
				}
			}
			if len(res.metrics) != len(want) {
				var got []string
				for n := range res.metrics {
					got = append(got, n)
				}
				sort.Strings(got)
				t.Errorf("%s trace=%v: reports %v, BENCHMARK.json names %v", w.Name, trace, got, names)
			}
			if trace && len(res.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}

// TestSimModelledMetricsRepeat pins sim-mode determinism: for a fixed
// seed, the modelled (virtual-time) figures of scadr-sim repeat exactly.
func TestSimModelledMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulated workload twice")
	}
	var first map[string]float64
	for i := 0; i < 2; i++ {
		res, err := run(shortOpts(t, "scadr-sim", false))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{
			"modelled_ips":        res.detail["modelled_ips"].Value,
			"latency_p50_ms":      res.metrics["latency_p50_ms"].Value,
			"latency_p99_ms":      res.detail["latency_p99_ms"].Value,
			"ops_per_interaction": res.metrics["ops_per_interaction"].Value,
		}
		if first == nil {
			first = got
			continue
		}
		for k, v := range got {
			if v != first[k] {
				t.Errorf("%s: %v, then %v", k, first[k], v)
			}
		}
	}
}

func TestStatementName(t *testing.T) {
	for label, want := range map[string]string{
		"Order Display WI Get OrderLines": "order_display_get_orderlines",
		"Search By Author Names WI":       "search_by_author_names",
		"Find User":                       "find_user",
	} {
		if got := statementName(label); got != want {
			t.Errorf("statementName(%q) = %q, want %q", label, got, want)
		}
	}
}
