package kvstore

import (
	"slices"
	"testing"
	"time"

	"piql/internal/sim"
)

// TestSimFanOutDeterminism pins the simulated fan-out paths to exact
// virtual times and operation counts for a fixed seed. Every branch of
// a simulated fan-out draws its replica choices and round trips from a
// child RNG seeded off the parent in branch order, so any change to how
// or when children are seeded moves these figures — and with them every
// modelled latency the simulated experiments report. Moving them is a
// deliberate change to the model, never a side effect of a refactor.
func TestSimFanOutDeterminism(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 17}, env)
	loadAndSplit(c, 400)
	if parts := len(c.Splits()) + 1; parts < 4 {
		t.Fatalf("rebalance produced only %d partitions", parts)
	}

	type step struct {
		now time.Duration
		ops int64
	}
	var got []step
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		mark := func() { got = append(got, step{p.Now(), cl.Ops()}) }

		var keys [][]byte
		for i := 0; i < 400; i += 17 {
			keys = append(keys, key(i))
		}
		cl.MultiGet(keys) // one batch per node, all nodes
		mark()
		cl.GetRangeScatter(RangeRequest{Start: key(10), End: key(390), Limit: 25})
		mark()
		cl.CountRange(key(50), key(350))
		mark()
		cl.Put(key(1000), val(1000)) // RF 2: two replica branches
		mark()
		cl.Parallel(3, func(sub *Client, i int) { sub.Put(key(2000+i), val(i)) })
		mark()
	})
	env.Run(0)
	env.Stop()

	want := []step{
		{1545681, 4},   // MultiGet: one batch on each of the 4 nodes
		{4065325, 8},   // GetRangeScatter: 4 partitions
		{7709819, 12},  // CountRange: 4 partitions
		{9046410, 14},  // Put: 2 replicas
		{10695284, 20}, // Parallel: 3 Puts x 2 replicas
	}
	if len(got) != len(want) {
		t.Fatalf("got %d steps: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: (now, ops) = (%d, %d), want (%d, %d)", i, got[i].now, got[i].ops, want[i].now, want[i].ops)
		}
	}
}

// branchSum is written by the non-capturing branch the allocation check
// runs, so the compiler cannot drop the call.
var branchSum int

// TestParallelImmediateRunsOnCaller: on an immediate client Parallel
// runs every branch on the caller itself, in index order, so the
// branches' operations count on the caller's chain and the fan-out
// costs no allocation — no child client, no reseeded RNG, no goroutine.
func TestParallelImmediateRunsOnCaller(t *testing.T) {
	_, cl := newImmediate(3, 2)
	var order []int
	cl.Parallel(4, func(sub *Client, i int) {
		if sub != cl {
			t.Fatalf("branch %d ran on %p, want the caller %p", i, sub, cl)
		}
		order = append(order, i)
		sub.Put(key(i), val(i))
	})
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("branch order %v, want %v", order, want)
	}
	if ops := cl.Ops(); ops != 8 {
		t.Fatalf("caller counted %d ops, want 8 (4 Puts x RF 2)", ops)
	}
	for i := 0; i < 4; i++ {
		if v, ok := cl.Get(key(i)); !ok || string(v) != string(val(i)) {
			t.Fatalf("key %d = %q, %v after its branch", i, v, ok)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		cl.Parallel(8, func(_ *Client, i int) { branchSum += i })
	})
	if allocs != 0 {
		t.Fatalf("immediate-mode Parallel allocates %.1f per call, want 0", allocs)
	}
}
