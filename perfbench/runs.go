package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// simTimeScale is the virtual time the simulated workload runs per
// second of -seconds: the simulator costs about two wall seconds per
// virtual second on a 2-CPU host, so a run measures about -seconds of
// wall time. The virtual duration depends only on -seconds, so the
// modelled metrics repeat exactly for a given seed.
const simTimeScale = 0.5

// plan returns the warm-up and the measured phases of a run: one
// untraced phase, or an untraced and a traced phase of half the length
// each (their throughput difference is the tracing overhead).
func plan(w workload, opts options) (time.Duration, []phase) {
	total := time.Duration(opts.seconds * float64(time.Second))
	if w.sim {
		total = time.Duration(float64(total) * simTimeScale)
	}
	warm, measure := total/10, total
	if !opts.trace {
		return warm, []phase{{length: measure}}
	}
	return warm, []phase{{length: measure / 2}, {length: measure / 2, traced: true}}
}

func load(fx *fixture, w workload, opts options, log *spanLog) (*loadRun, error) {
	warm, phases := plan(w, opts)
	if w.sim {
		return runSim(fx, w, warm, phases, log)
	}
	return runImmediate(fx, w, warm, phases, log)
}

// passSize is the number of pseudo-interactions of the per-statement
// pass: a short check in an untraced run, the per-statement figures in
// a traced one.
func passSize(opts options) int {
	n := 40.0
	if opts.trace {
		n = 300
	}
	return max(2, int(n*opts.probeScale))
}

// runUntraced measures the end-to-end metrics: set up opts.setups times
// (setup_s is the median CPU time of a set-up), measure the live heap,
// run the closed loop, then check results and replica convergence.
func runUntraced(w workload, opts options, res *result) error {
	var fx *fixture
	var setups, setupWall []float64
	for i := 0; i < opts.setups; i++ {
		fx = nil // let the previous fixture be collected before the next
		runtime.GC()
		start, cpu := time.Now(), cpuTime()
		var err error
		if fx, err = setup(w, opts.seed); err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - cpu).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	run, err := load(fx, w, opts, newSpanLog())
	if err != nil {
		return err
	}
	collect(res, run)
	st := run.phases[0]
	res.metrics["latency_p50_ms"] = metric{st.p50ms, "ms"}
	res.metrics["cpu_us_per_interaction"] = metric{st.cpuUsPer, "us"}
	res.metrics["ops_per_interaction"] = metric{st.opsPer, "count"}
	res.metrics["alloc_bytes_per_interaction"] = metric{st.bytesPer, "B"}
	res.metrics["heap_live_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	res.metrics["setup_s"] = metric{median(setups), "s"}
	// Reported but not gated: on a shared virtual machine, CPU steal moves
	// wall-clock throughput and the latency tail by up to a quarter from
	// run to run (see README.md).
	res.detail["throughput_ips"] = metric{st.ips, "1/s"}
	res.detail["latency_p99_ms"] = metric{st.p99ms, "ms"}
	res.detail["interactions"] = metric{float64(st.interactions), "count"}
	res.detail["setup_wall_s"] = metric{median(setupWall), "s"}
	if w.sim {
		res.detail["modelled_ips"] = metric{st.modelledIPS, "1/s"}
	}
	_, err = verify(fx, opts, res, newSpanLog())
	return err
}

// runTraced measures the per-layer metrics: one set-up, an untraced and
// a traced phase of the closed loop, the per-statement pass under spans,
// then the layer probes.
func runTraced(w workload, opts options, res *result) error {
	fx, err := setup(w, opts.seed)
	if err != nil {
		return err
	}
	runtime.GC()
	log := newSpanLog()
	rejects := fx.cluster.FenceRejects()
	run, err := load(fx, w, opts, log)
	if err != nil {
		return err
	}
	collect(res, run)
	plain, traced := run.phases[0], run.phases[1]
	res.metrics["trace.overhead_frac"] = metric{1 - traced.ips/plain.ips, "ratio"}
	addRuntimeMetrics(res, plain.first.rt, plain.last.rt, plain.clientSeconds, plain.interactions)
	res.detail["untraced.throughput_ips"] = metric{plain.ips, "1/s"}
	res.detail["traced.throughput_ips"] = metric{traced.ips, "1/s"}

	c, err := verify(fx, opts, res, log)
	if err != nil {
		return err
	}
	c.report(res)
	res.metrics["kvstore.fence_retries"] = metric{float64(run.fenceRetries + c.s.Client().FenceRetries()), "count"}
	res.metrics["kvstore.fence_rejects"] = metric{float64(fx.cluster.FenceRejects() - rejects), "count"}

	if err := probeLayers(fx, opts, res, c.qs, log.tracer()); err != nil {
		return err
	}
	if err := fx.cluster.AuditConvergence(); err != nil {
		res.fail("replicas diverged after the probes: %v", err)
	}
	res.spans = log.spans()
	return nil
}

// collect adds a load run's interaction counts and errors to res.
func collect(res *result, run *loadRun) {
	res.attempted += run.attempted
	res.failed += run.failed
	for _, err := range run.errs {
		res.note("interaction failed: %v", err)
	}
}

// verify runs the per-statement pass with its result checks (and, in a
// traced run, the static-bound check with the cluster's partition-walk
// slack), then requires the replicas to have converged.
func verify(fx *fixture, opts options, res *result, log *spanLog) (*caller, error) {
	s := fx.session(nil)
	_, qs, err := fx.app.worker(s, 1000)
	if err != nil {
		return nil, fmt.Errorf("prepare statements: %w", err)
	}
	c := newCaller(s, res, log.tracer(), qs, opts.trace, int64(len(fx.cluster.Splits())))
	fx.app.pass(c, rand.New(rand.NewSource(opts.seed)), passSize(opts))
	if err := fx.cluster.AuditConvergence(); err != nil {
		res.fail("replicas diverged: %v", err)
	}
	return c, nil
}
