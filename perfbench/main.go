// Command perfbench is PIQL's benchmark: it runs one named workload for
// a given seed, prints every metric by name with its unit, checks that
// the program's outputs are correct, and ends its standard output with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 they are the per-layer ones, from a traced run that also
// writes its spans to a file. See README.md for the workloads and the
// layer → end-to-end metric map.
//
// Usage:
//
//	perfbench -workload scadr-home -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed (inputs are a function of it)")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opts.outDir, "out", ".bench_build/perfbench-out", "directory for the result record and span file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	opts.trace = *trace == 1
	opts.setups = 3
	opts.probeScale = 1

	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printResult(os.Stdout, res)
	if err := writeRecord(opts, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
		os.Exit(1)
	}
}

// options are one run's settings.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	setups     int     // set-ups per untraced run; setup_s is their median
	probeScale float64 // scales probe and statement-pass sizes (tests shrink it)
	outDir     string
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. metrics holds exactly the metrics the
// run kind reports; detail holds the rest (per-statement figures,
// modelled throughput), printed and recorded but not in the JSON line.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	detail    map[string]metric
	problems  []string
	spans     []span
	env       map[string]string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}, detail: map[string]metric{}}
}

// fail marks the run incorrect and keeps the reason.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.note(format, args...)
}

// note keeps a problem that does not by itself make the run incorrect
// (a failed operation, counted in result.failed).
func (r *result) note(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func run(opts options) (*result, error) {
	w, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, workloadNames())
	}
	if opts.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	res := newResult()
	res.env = hostEnv(opts)
	var err error
	if opts.trace {
		err = runTraced(w, opts, res)
	} else {
		err = runUntraced(w, opts, res)
	}
	return res, err
}

// printResult prints every metric as "metric <name> <value> <unit>",
// the problems, and last the JSON summary line.
func printResult(f *os.File, res *result) {
	keys := make([]string, 0, len(res.env))
	for k := range res.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "env %s %s\n", k, res.env[k])
	}
	for _, m := range []map[string]metric{res.detail, res.metrics} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "metric %s %.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(f, "problem", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	fmt.Fprintln(f, string(line))
}

// writeRecord writes the full result (environment, all metrics,
// problems) and, for a traced run, the spans, under opts.outDir.
func writeRecord(opts options, res *result) error {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if opts.trace {
		kind = "trace"
	}
	base := filepath.Join(opts.outDir, fmt.Sprintf("%s-seed%d-%s", opts.workload, opts.seed, kind))
	rec, err := json.MarshalIndent(map[string]any{
		"env":       res.env,
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
		"detail":    res.detail,
		"problems":  res.problems,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(rec, '\n'), 0o644); err != nil {
		return err
	}
	if !opts.trace {
		return nil
	}
	return writeSpans(base+".spans.jsonl", res.spans)
}
