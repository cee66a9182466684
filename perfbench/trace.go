package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// interaction share IID; Parent is the enclosing span's ID (0 = root).
// Virtual spans come from the simulated cluster and are in virtual
// time; the rest are wall-clock offsets from the start of the run.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	IID     int64  `json:"iid"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Virtual bool   `json:"virtual,omitempty"`
}

// spanLog owns a run's tracers: they share its epoch and ID sequence,
// so their spans merge into one consistent set.
type spanLog struct {
	epoch   time.Time
	ids     atomic.Int64
	tracers []*tracer
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// tracer returns a new tracer for one goroutine (or for all simulated
// processes, which run one at a time).
func (l *spanLog) tracer() *tracer {
	t := &tracer{log: l}
	l.tracers = append(l.tracers, t)
	return t
}

// spans returns every recorded span, ordered by ID.
func (l *spanLog) spans() []span {
	var all []span
	for _, t := range l.tracers {
		all = append(all, t.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// tracer keeps one goroutine's spans in memory.
type tracer struct {
	log   *spanLog
	spans []span
}

// begin allocates a span ID so children can name it as their parent
// before it ends, and returns it with the start time.
func (t *tracer) begin() (int64, time.Time) {
	return t.log.ids.Add(1), time.Now()
}

// end records a wall-clock span that started at start.
func (t *tracer) end(id, parent, iid int64, name string, start time.Time) {
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, IID: iid, Name: name,
		Start: int64(start.Sub(t.log.epoch)), End: int64(time.Since(t.log.epoch)),
	})
}

// virtual records a root span measured on the simulation clock.
func (t *tracer) virtual(name string, start, end time.Duration) {
	id := t.log.ids.Add(1)
	t.spans = append(t.spans, span{ID: id, IID: id, Name: name, Start: int64(start), End: int64(end), Virtual: true})
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Runtime metrics read around the untraced phase of a traced run.
var runtimeNames = []string{
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// addRuntimeMetrics reports the runtime's view of an interval: lock
// wait per client-second, the scheduling-latency tail, the GC's share
// of CPU and GC cycles per thousand interactions.
func addRuntimeMetrics(res *result, before, after []metrics.Sample, clientSeconds float64, interactions int64) {
	f := func(i int) float64 { return after[i].Value.Float64() - before[i].Value.Float64() }
	res.metrics["runtime.mutex_wait_frac"] = metric{f(0) / clientSeconds, "ratio"}
	res.metrics["runtime.sched_latency_p99_us"] = metric{histQuantile(before[1].Value.Float64Histogram(), after[1].Value.Float64Histogram(), 0.99) * 1e6, "us"}
	gcFrac := 0.0
	if total := f(3); total > 0 {
		gcFrac = f(2) / total
	}
	res.metrics["runtime.gc_cpu_frac"] = metric{gcFrac, "ratio"}
	cycles := float64(after[4].Value.Uint64() - before[4].Value.Uint64())
	res.metrics["runtime.gc_cycles_per_kinteraction"] = metric{cycles / math.Max(1, float64(interactions)) * 1000, "count"}
}

// histQuantile returns the q-quantile of the difference of two
// cumulative runtime histograms, as the upper edge of its bucket.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// hostEnv records where and how the run was made.
func hostEnv(opts options) map[string]string {
	host, _ := os.Hostname()
	sha := os.Getenv("PERFBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return map[string]string{
		"host":       host,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_sha":    sha,
		"workload":   opts.workload,
		"seed":       strconv.FormatInt(opts.seed, 10),
		"seconds":    strconv.FormatFloat(opts.seconds, 'g', -1, 64),
		"trace":      strconv.FormatBool(opts.trace),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
