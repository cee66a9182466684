package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"piql/internal/kvstore"
	"piql/internal/sim"
)

// windows is how many equal windows each measured phase is cut into.
// Throughput and wall-clock latency are reported as the median over
// windows, so a burst of outside noise moves one window, not the result.
const windows = 10

// phase is one measured interval of a closed-loop run, in the run's
// clock: wall time in immediate mode, virtual time on the simulator.
type phase struct {
	length time.Duration
	traced bool // record one span per interaction
}

// sample is one finished interaction: its start in the run's clock and
// its latency. A failed interaction counts as missing every latency
// limit, so its latency is recorded as infinite.
type sample struct {
	at, lat time.Duration
}

// snap is the state of the counters at one window edge.
type snap struct {
	wall  time.Time
	cpu   time.Duration // user+system CPU time of the process
	ops   int64
	alloc uint64
	rt    []metrics.Sample
}

func takeSnap(c *kvstore.Cluster) snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{wall: time.Now(), cpu: cpuTime(), ops: c.TotalOps(), alloc: ms.TotalAlloc, rt: readRuntime()}
}

// cpuTime returns the process's user+system CPU time. Unlike wall time
// it does not grow while the host steals the CPU from the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseStats summarises one phase.
type phaseStats struct {
	interactions  int64
	ips           float64 // completed interactions per wall second (median over windows)
	p50ms, p99ms  float64 // wall-clock latency (median over windows), or modelled latency on the simulator
	modelledIPS   float64 // interactions per virtual second (simulator only)
	cpuUsPer      float64 // process CPU time per interaction, in µs (median over windows)
	opsPer        float64 // KV operations per interaction
	bytesPer      float64 // bytes allocated per interaction
	clientSeconds float64 // wall time the clients spent in the phase
	first, last   snap
}

// loadRun is the outcome of one closed-loop run over all its phases.
type loadRun struct {
	phases            []phaseStats
	attempted, failed int64 // every interaction, warm-up included
	errs              []error
	fenceRetries      int64
}

// loadClient is one closed-loop client's state.
type loadClient struct {
	interact          func() error
	kv                *kvstore.Client
	tr                *tracer
	samples           []sample
	attempted, failed int64
	err               error
}

func (c *loadClient) finish(at, lat time.Duration, err error, measured bool) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
		lat = math.MaxInt64
	}
	if measured {
		c.samples = append(c.samples, sample{at, lat})
	}
}

// edges returns the window edges of all phases, from the end of the
// warm-up on, in the run's clock.
func edges(warm time.Duration, phases []phase) []time.Duration {
	e := []time.Duration{warm}
	for _, p := range phases {
		start := e[len(e)-1]
		for w := 1; w <= windows; w++ {
			e = append(e, start+p.length*time.Duration(w)/windows)
		}
	}
	return e
}

// phaseOf returns the phase containing t, or -1 outside the phases.
func phaseOf(t time.Duration, e []time.Duration) int {
	w := sort.Search(len(e), func(i int) bool { return e[i] > t }) - 1
	if w < 0 || w >= len(e)-1 {
		return -1
	}
	return w / windows
}

// runImmediate drives the fixture with w.clients goroutines, each
// waiting for its interaction to finish before it starts the next (a
// closed loop with no think time), through warm-up and every phase.
func runImmediate(fx *fixture, w workload, warm time.Duration, phases []phase, log *spanLog) (*loadRun, error) {
	clients := make([]*loadClient, w.clients)
	for i := range clients {
		s := fx.session(nil)
		f, _, err := fx.app.worker(s, int64(i+1))
		if err != nil {
			return nil, err
		}
		clients[i] = &loadClient{interact: f, kv: s.Client(), tr: log.tracer()}
	}
	e := edges(warm, phases)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		//lint:allow goroleak — wg-joined client with a loop bounded by the last window edge; the opaque call is the workload's Interaction, which returns.
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				at := t0.Sub(start)
				if at >= e[len(e)-1] {
					return
				}
				ph := phaseOf(at, e)
				traced := ph >= 0 && phases[ph].traced
				var id int64
				if traced {
					id, _ = c.tr.begin()
				}
				err := c.interact()
				if traced {
					c.tr.end(id, 0, id, "interaction", t0)
				}
				c.finish(at, time.Since(t0), err, ph >= 0)
			}
		}()
	}
	snaps := make([]snap, len(e))
	for i, edge := range e {
		time.Sleep(time.Until(start.Add(edge))) //lint:allow simsleep — wall-clock window pacing; the cluster is immediate-mode
		snaps[i] = takeSnap(fx.cluster)
	}
	wg.Wait()
	return summarise(clients, phases, e, snaps, false), nil
}

// runSim drives the simulated fixture with w.clients cooperative
// processes in a closed loop, through warm-up and every phase of
// virtual time. A monitor process snapshots the counters (and the wall
// clock) at every window edge. The run ends when every process has
// finished its last interaction, so the cluster is quiesced.
func runSim(fx *fixture, w workload, warm time.Duration, phases []phase, log *spanLog) (*loadRun, error) {
	env := fx.env
	e := edges(warm, phases)
	tr := log.tracer() // processes run one at a time, so they can share it
	clients := make([]*loadClient, w.clients)
	var werr error
	for i := range clients {
		c := &loadClient{tr: tr}
		clients[i] = c
		env.Spawn(func(p *sim.Proc) {
			s := fx.session(p)
			c.kv = s.Client()
			f, _, err := fx.app.worker(s, int64(i+1))
			if err != nil {
				werr = err
				return
			}
			for {
				t0 := p.Now()
				if t0 >= e[len(e)-1] {
					return
				}
				ph := phaseOf(t0, e)
				err := f()
				if ph >= 0 && phases[ph].traced {
					tr.virtual("interaction", t0, p.Now())
				}
				c.finish(t0, p.Now()-t0, err, ph >= 0)
				if err != nil {
					p.Sleep(time.Millisecond) // a failing interaction still lets virtual time advance
				}
			}
		})
	}
	snaps := make([]snap, len(e))
	env.Spawn(func(p *sim.Proc) {
		for i, edge := range e {
			p.Sleep(edge - p.Now())
			snaps[i] = takeSnap(fx.cluster)
		}
	})
	env.Run(0)
	env.Stop()
	if werr != nil {
		return nil, werr
	}
	return summarise(clients, phases, e, snaps, true), nil
}

// summarise turns the clients' samples and the edge snapshots into
// per-phase statistics. On the simulator, latency is the modelled
// (virtual-time) latency over the whole phase.
func summarise(clients []*loadClient, phases []phase, e []time.Duration, snaps []snap, simulated bool) *loadRun {
	run := &loadRun{}
	byWindow := make([][]time.Duration, len(e)-1)
	for _, c := range clients {
		run.attempted += c.attempted
		run.failed += c.failed
		if c.err != nil {
			run.errs = append(run.errs, c.err)
		}
		if c.kv != nil {
			run.fenceRetries += c.kv.FenceRetries()
		}
		for _, s := range c.samples {
			if w := sort.Search(len(e), func(i int) bool { return e[i] > s.at }) - 1; w >= 0 && w < len(byWindow) {
				byWindow[w] = append(byWindow[w], s.lat)
			}
		}
	}
	parallel := float64(len(clients))
	if simulated {
		parallel = 1 // one process runs at a time
	}
	for p := range phases {
		a, b := p*windows, (p+1)*windows
		st := phaseStats{first: snaps[a], last: snaps[b]}
		var ips, cpu, p50, p99 []float64
		var all []time.Duration
		for w := a; w < b; w++ {
			lat := byWindow[w]
			k := float64(max(1, len(lat)))
			ips = append(ips, float64(len(lat))/snaps[w+1].wall.Sub(snaps[w].wall).Seconds())
			cpu = append(cpu, float64(snaps[w+1].cpu-snaps[w].cpu)/1e3/k)
			p50 = append(p50, ms(percentile(lat, 0.50)))
			p99 = append(p99, ms(percentile(lat, 0.99)))
			all = append(all, lat...)
		}
		n := float64(max(1, len(all)))
		st.interactions = int64(len(all))
		st.ips = median(ips)
		st.p50ms, st.p99ms = median(p50), median(p99)
		if simulated {
			st.p50ms, st.p99ms = ms(percentile(all, 0.50)), ms(percentile(all, 0.99))
			st.modelledIPS = float64(len(all)) / (e[b] - e[a]).Seconds()
		}
		st.cpuUsPer = median(cpu)
		st.opsPer = float64(st.last.ops-st.first.ops) / n
		st.bytesPer = float64(st.last.alloc-st.first.alloc) / n
		st.clientSeconds = parallel * st.last.wall.Sub(st.first.wall).Seconds()
		run.phases = append(run.phases, st)
	}
	return run
}

// percentile returns the q-quantile (nearest rank) of ds; it sorts ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[max(0, int(math.Ceil(q*float64(len(ds))))-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
