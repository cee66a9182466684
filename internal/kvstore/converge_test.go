package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"piql/internal/sim"
)

// TestHLCMonotonic: timestamps are strictly increasing, including under
// concurrent draws, and loosely track the wall clock.
func TestHLCMonotonic(t *testing.T) {
	var h HLC
	last := h.Next()
	for i := 0; i < 10_000; i++ {
		next := h.Next()
		if next <= last {
			t.Fatalf("HLC went backwards: %d after %d", next, last)
		}
		last = next
	}
	if wall := wallHLC(time.Now()); last < wall-int64(time.Minute/time.Millisecond)<<hlcLogicalBits {
		t.Fatalf("HLC fell far behind the wall clock: %d vs %d", last, wall)
	}

	const workers, draws = 8, 5_000
	seen := make([]map[int64]struct{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make(map[int64]struct{}, draws)
			for i := 0; i < draws; i++ {
				mine[h.Next()] = struct{}{}
			}
			seen[w] = mine
		}(w)
	}
	wg.Wait()
	all := make(map[int64]struct{}, workers*draws)
	for _, mine := range seen {
		for ts := range mine {
			if _, dup := all[ts]; dup {
				t.Fatalf("duplicate concurrent timestamp %d", ts)
			}
			all[ts] = struct{}{}
		}
	}
}

// TestEnvelopeRoundtrip pins the version envelope codec.
func TestEnvelopeRoundtrip(t *testing.T) {
	ver := Version{TS: 0x1234_5678_9ABC, Client: 42}
	env := makeEnvelope(ver, false, []byte("payload"))
	if got := envVersion(env); got != ver {
		t.Fatalf("version roundtrip: %+v", got)
	}
	if envIsTombstone(env) {
		t.Fatal("live envelope read as tombstone")
	}
	if !bytes.Equal(envValue(env), []byte("payload")) {
		t.Fatalf("value roundtrip: %q", envValue(env))
	}
	tomb := makeEnvelope(ver, true, nil)
	if !envIsTombstone(tomb) || len(envValue(tomb)) != 0 {
		t.Fatal("tombstone envelope malformed")
	}
	newer := Version{TS: ver.TS, Client: 43}
	if !newer.After(ver) || ver.After(newer) || ver.After(ver) {
		t.Fatal("version ordering broken on client tiebreak")
	}
}

// TestApplyIfNewerConverges: applying the same envelopes in any order
// leaves a node in the same state — the per-key convergence kernel.
func TestApplyIfNewerConverges(t *testing.T) {
	k := []byte("k")
	envs := [][]byte{
		makeEnvelope(Version{TS: 10, Client: 1}, false, []byte("a")),
		makeEnvelope(Version{TS: 20, Client: 2}, true, nil),
		makeEnvelope(Version{TS: 15, Client: 3}, false, []byte("b")),
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}
	for _, order := range orders {
		nd := newNode(9, 1, nil, 1, time.Hour)
		for _, i := range order {
			nd.applyIfNewer(k, envs[i])
		}
		if _, ok := nd.get(k); ok {
			t.Fatalf("order %v: tombstone TS=20 did not win", order)
		}
		if _, ver, _ := nd.getVersioned(k); ver != (Version{TS: 20, Client: 2}) {
			t.Fatalf("order %v: final version %+v", order, ver)
		}
	}
}

// TestAsyncReplicationRacingWritersConverge is the regression for the
// store's documented divergence: under AsyncReplication, replica
// catch-ups apply lagged writes, so a second client's write that
// reaches the replicas *before* an earlier write's catch-up fires is
// applied to the primary and the replicas in opposite orders. The
// unversioned store kept the last arrival per replica — permanent
// divergence, flip-flopping reads. Versioned writes converge on the
// newest stamp regardless of arrival order.
func TestAsyncReplicationRacingWritersConverge(t *testing.T) {
	env := sim.NewEnv()
	lag := 500 * time.Millisecond
	c := New(Config{
		Nodes: 2, ReplicationFactor: 2, Seed: 7,
		AsyncReplication: true, ReplicaLag: lag,
	}, env)
	kPut, kDel := []byte("race-putput"), []byte("race-putdel")

	env.Spawn(func(p *sim.Proc) {
		slow := c.NewClient(p)
		// Client A: lagged writes — the replica sees them at +lag.
		slow.Put(kPut, []byte("older-put"))
		slow.Put(kDel, []byte("doomed"))
		// Client B: an immediate-mode client (no simulated latency, e.g.
		// a maintenance task) writes the same keys *now*: its writes hit
		// every replica before A's catch-up fires, so the replicas apply
		// B-then-A — the opposite of the primary's A-then-B.
		fast := c.NewClient(nil)
		fast.Put(kPut, []byte("newer-put"))
		fast.Delete(kDel)
		p.Sleep(4 * lag) // drain the catch-ups
	})
	env.Run(0)
	env.Stop()

	for id := 0; id < 2; id++ {
		if v, ok := c.nodes[id].get(kPut); !ok || !bytes.Equal(v, []byte("newer-put")) {
			t.Fatalf("node %d holds %q (present=%v) for %q, want newer-put on every replica", id, v, ok, kPut)
		}
		if v, ok := c.nodes[id].get(kDel); ok {
			t.Fatalf("node %d resurrected deleted key %q as %q", id, kDel, v)
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCatchUpRespectsOwnership: a replica catch-up firing after a
// rebalance moved its key's range must not resurrect the key on the
// former owner (cleanup purged it; the copy already carried the write
// from the old primary to the new owners). The catch-up revalidates
// ownership under a claimed routing table at fire time. Without the
// check, a later rebalance could even promote the resurrected value
// back to owned state after the delete's tombstone was GC'd —
// permanent divergence through a side door.
func TestAsyncCatchUpRespectsOwnership(t *testing.T) {
	env := sim.NewEnv()
	lag := 500 * time.Millisecond
	c := New(Config{
		Nodes: 3, ReplicationFactor: 2, Seed: 17,
		AsyncReplication: true, ReplicaLag: lag,
	}, env)
	const n = 200
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		for i := 0; i < n; i++ {
			cl.Put(key(i), val(i)) // catch-ups to node 1 pending at +lag
		}
		// Rebalance inside the lag window: epoch 0 owned everything on
		// nodes {0,1}; the new layout hands some ranges to {1,2}/{2,0},
		// so node 1 loses part of the keyspace while its catch-ups are
		// still queued.
		c.Rebalance()
		p.Sleep(4 * lag) // let every catch-up fire
	})
	env.Run(0)
	env.Stop()

	rt := c.routing.Load()
	moved := false
	for id, nd := range c.nodes {
		for _, kv := range nd.scanRaw(nil, nil, 0) {
			if envIsTombstone(kv.Value) {
				continue
			}
			if !rt.isOwner(rt.partitionOf(kv.Key), id) {
				t.Fatalf("node %d holds %q but no longer owns its range — a lagged catch-up resurrected it", id, kv.Key)
			}
		}
	}
	for i := 0; i < n; i++ {
		if p := rt.partitionOf(key(i)); !rt.isOwner(p, 1) {
			moved = true
		}
		if v, ok := c.NewClient(nil).Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d lost: %q (present=%v)", i, v, ok)
		}
	}
	if !moved {
		t.Fatal("rebalance moved nothing off node 1 — the test exercised no catch-up/ownership race")
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCatchUpKillRestartInterleaving extends the ownership race
// with a crash: node 1's catch-ups are pending when a rebalance moves
// part of its keyspace away AND the node is killed before they fire.
// At fire time each catch-up must revalidate ownership (lost ranges
// drop) and liveness (kept ranges queue for the dead node rather than
// applying to it); at restart the queued ones replay under the same
// ownership check. No key may be lost, nothing may be resurrected on a
// non-owner, and the replicas must converge.
func TestAsyncCatchUpKillRestartInterleaving(t *testing.T) {
	env := sim.NewEnv()
	lag := 500 * time.Millisecond
	c := New(Config{
		Nodes: 3, ReplicationFactor: 2, Seed: 17,
		AsyncReplication: true, ReplicaLag: lag,
	}, env)
	const n = 200
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		for i := 0; i < n; i++ {
			cl.Put(key(i), val(i)) // catch-ups to node 1 pending at +lag
		}
		c.Rebalance()    // node 1 loses part of the keyspace...
		c.Kill(1)        // ...and crashes before the catch-ups fire
		p.Sleep(2 * lag) // fire mid-outage: drop (lost ranges) or queue (kept)
		c.Restart(1)     // replay revalidates ownership again
		p.Sleep(2 * lag)
	})
	env.Run(0)
	env.Stop()

	if c.CatchUpsQueued() == 0 {
		t.Fatal("no catch-up queued while node 1 was down — the kill missed the lag window")
	}
	if c.CatchUpsReplayed() == 0 {
		t.Fatal("no queued catch-up replayed at restart")
	}
	rt := c.routing.Load()
	for id, nd := range c.nodes {
		for _, kv := range nd.scanRaw(nil, nil, 0) {
			if envIsTombstone(kv.Value) {
				continue
			}
			if !rt.isOwner(rt.partitionOf(kv.Key), id) {
				t.Fatalf("node %d holds %q but no longer owns its range — a catch-up resurrected it across the crash", id, kv.Key)
			}
		}
	}
	cl := c.NewClient(nil)
	for i := 0; i < n; i++ {
		if v, ok := cl.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d lost across the crash: %q (present=%v)", i, v, ok)
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRepairConvergesStaleReplica: a read that fans out to all
// replicas returns the newest value and repairs the stale replica
// immediately, without waiting for the replication lag to drain.
func TestReadRepairConvergesStaleReplica(t *testing.T) {
	env := sim.NewEnv()
	lag := 500 * time.Millisecond
	c := New(Config{
		Nodes: 2, ReplicationFactor: 2, Seed: 13,
		AsyncReplication: true, ReplicaLag: lag,
	}, env)
	k := []byte("repair-key")

	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		cl.Put(k, []byte("v1"))
		p.Sleep(2 * lag) // v1 fully replicated
		cl.Put(k, []byte("v2"))
		// Mid-lag: the replica still holds v1.
		if v, _ := c.nodes[1].get(k); !bytes.Equal(v, []byte("v1")) {
			panic(fmt.Sprintf("replica should still hold v1, has %q", v))
		}
		if v, ok := cl.ReadRepair(k); !ok || !bytes.Equal(v, []byte("v2")) {
			panic(fmt.Sprintf("ReadRepair returned %q (ok=%v), want v2", v, ok))
		}
		// The repair converged the replica before the catch-up fires.
		if v, _ := c.nodes[1].get(k); !bytes.Equal(v, []byte("v2")) {
			panic(fmt.Sprintf("replica not repaired: holds %q", v))
		}
		p.Sleep(2 * lag) // the late catch-up of v2's write must be a no-op
	})
	env.Run(0)
	env.Stop()
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicasConvergeUnderRacingWrites is the acceptance gate for the
// versioned store: N clients race unordered Put/Delete on shared keys
// while the cluster repeatedly rebalances in small chunks, and at the
// end every replica of every key must hold the identical versioned
// value. The unversioned store diverged here trivially — two clients'
// per-replica write orders could interleave oppositely (last writer
// wins per replica, no cross-replica order), and the ROADMAP documented
// the flip-flopping reads as a known anomaly. Run under -race.
func TestReplicasConvergeUnderRacingWrites(t *testing.T) {
	c := New(Config{Nodes: 6, ReplicationFactor: 3, Seed: 31, MoveChunkKeys: 8}, nil)
	const (
		writers = 8
		keys    = 40
		ops     = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			for i := 0; i < ops; i++ {
				k := key(i % keys)
				switch (g + i) % 4 {
				case 0:
					cl.Delete(k)
				default:
					cl.Put(k, []byte(fmt.Sprintf("w%02d-%05d", g, i)))
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			c.Rebalance()
		}
	}()
	wg.Wait()
	<-done
	c.Rebalance() // settle the final layout with no writers racing it

	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
	// Tombstone GC must not disturb convergence: sweep everything (the
	// cluster is quiesced) and re-audit.
	if swept := c.GCTombstones(0); swept == 0 {
		t.Fatal("racing deletes left no tombstones to GC — the sweep path was not exercised")
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatalf("post-GC: %v", err)
	}
}

// TestGetRangeScatterImmediateMode: in immediate mode the scatter path
// scans its partitions one after another on the caller, without
// fanning out; results must match the sequential GetRange exactly and
// every scan must be counted as an operation.
func TestGetRangeScatterImmediateMode(t *testing.T) {
	c, cl := newImmediate(5, 2)
	for i := 0; i < 500; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()
	if parts := len(c.Splits()) + 1; parts < 3 {
		t.Fatalf("rebalance produced only %d partitions", parts)
	}
	reqs := []RangeRequest{
		{Start: key(0), End: key(500)},
		{Start: key(123), End: key(456), Limit: 50},
		{Start: key(123), End: key(456), Limit: 50, Reverse: true},
		{Start: nil, End: nil, Limit: 33},
		{Start: key(77), End: key(78), Limit: 5},
		{Start: nil, End: nil, Reverse: true, Limit: 499},
	}
	scatter := c.NewClient(nil)
	seq := c.NewClient(nil)
	for i, req := range reqs {
		before := scatter.Ops()
		got := scatter.GetRangeScatter(req)
		opsUsed := scatter.Ops() - before
		want := seq.GetRange(req)
		if len(got) != len(want) {
			t.Fatalf("req %d: scatter %d kvs, sequential %d", i, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j].Key, want[j].Key) || !bytes.Equal(got[j].Value, want[j].Value) {
				t.Fatalf("req %d: kv %d differs: %q vs %q", i, j, got[j].Key, want[j].Key)
			}
		}
		if opsUsed <= 0 {
			t.Fatalf("req %d: scatter accounted %d ops", i, opsUsed)
		}
	}
}

// TestGetRangeScatterImmediateConcurrentClients: many immediate-mode
// clients scatter wide ranges at once, under -race; each must see its
// full limit of keys.
func TestGetRangeScatterImmediateConcurrentClients(t *testing.T) {
	c, loader := newImmediate(6, 2)
	for i := 0; i < 600; i++ {
		loader.Put(key(i), val(i))
	}
	c.Rebalance()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			for i := 0; i < 50; i++ {
				kvs := cl.GetRangeScatter(RangeRequest{Start: key(g * 10), End: key(g*10 + 300), Limit: 40})
				if len(kvs) != 40 {
					t.Errorf("client %d: got %d kvs, want 40", g, len(kvs))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplicaNodesIntoMatches: the allocation-free routing variant must
// agree with the allocating one and actually not allocate.
func TestReplicaNodesIntoMatches(t *testing.T) {
	c, _ := newImmediate(5, 3)
	buf := make([]int, 0, 3)
	for p := 0; p < 5; p++ {
		want := c.replicaNodes(p)
		got := c.replicaNodesInto(buf[:0], p)
		if len(got) != len(want) {
			t.Fatalf("p=%d: len %d vs %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: %v vs %v", p, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = c.replicaNodesInto(buf[:0], 3)
	})
	if allocs != 0 {
		t.Fatalf("replicaNodesInto allocates %.1f per run", allocs)
	}
}

// TestTombstoneGCBounded: a node that accumulates tombstones past the
// sweep threshold collects the expired ones inline, without any
// explicit GC call. (Tombstones younger than the grace age are never
// swept, so the test lets the wall clock tick past them first.)
func TestTombstoneGCBounded(t *testing.T) {
	c := New(Config{Nodes: 1, ReplicationFactor: 1, Seed: 3, TombstoneGCAge: time.Nanosecond}, nil)
	cl := c.NewClient(nil)
	n := tombstoneSweepThreshold + 1
	for i := 0; i < n; i++ {
		cl.Put(key(i), val(i))
		cl.Delete(key(i))
	}
	// All n tombstones may share the current wall millisecond and so be
	// too young for the first threshold crossings to collect; age them
	// past the grace period, then trip the threshold once more.
	time.Sleep(5 * time.Millisecond)
	cl.Put(key(n), val(n))
	cl.Delete(key(n))
	c.nodes[0].mu.Lock()
	tombs := c.nodes[0].tombs
	c.nodes[0].mu.Unlock()
	if tombs > n/2 {
		t.Fatalf("inline sweep never fired: %d tombstones (threshold %d)", tombs, tombstoneSweepThreshold)
	}
	if live := c.TotalItems(); live != 0 {
		t.Fatalf("store reports %d live items after deleting everything", live)
	}
}
