package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"piql"
	"piql/internal/analyze"
	"piql/internal/btree"
	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/sim"
	"piql/internal/value"
)

// probeRound is how long one of a probe's three rounds runs.
const probeRound = 40 * time.Millisecond

// probeSample is the number of keys and rows a probe draws from the
// workload's data.
const probeSample = 4096

// cost is the per-call cost of a probe: the median over three rounds.
type cost struct{ ns, bytes, allocs float64 }

// prober measures single layers in isolation, one span per probe.
type prober struct {
	tr    *tracer
	round time.Duration
}

// measure calls fn(i) with i counting up from 0, in three timed rounds
// after one warm-up call, and returns the median per-call cost.
func (p *prober) measure(name string, fn func(i int)) cost {
	id, start := p.tr.begin()
	defer p.tr.end(id, 0, id, "probe."+name, start)
	fn(0)
	i := 1
	var ns, bytes, allocs []float64
	for r := 0; r < 3; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n := 0
		for time.Since(t0) < p.round {
			for k := 0; k < 8; k++ {
				fn(i)
				i++
				n++
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return cost{median(ns), median(bytes), median(allocs)}
}

// probeLayers runs every layer probe on inputs drawn from the fixture's
// data with the run's seed.
func probeLayers(fx *fixture, opts options, res *result, qs map[string]*engine.Prepared, tr *tracer) error {
	p := &prober{tr: tr, round: time.Duration(float64(probeRound) * opts.probeScale)}
	rng := rand.New(rand.NewSource(opts.seed))
	cat := fx.eng.Catalog()
	pointTable, rowTable, pointKey := fx.app.probeInputs(cat)
	cl := fx.cluster.NewClient(nil)
	m := res.metrics

	// The workload's own records: rows for the codecs, keys for reads.
	prefix := index.RecordPrefix(rowTable)
	tableEnd := codec.PrefixEnd(prefix)
	recs := sampleKVs(rng, cl.GetRange(kvstore.RangeRequest{Start: prefix, End: tableEnd}))
	rows := make([]value.Row, len(recs))
	pks := make([]value.Row, len(recs))
	encKeys := make([][]byte, len(recs))
	for i, kv := range recs {
		r, err := value.DecodeRow(kv.Value)
		if err != nil {
			return fmt.Errorf("probe: decode %s record: %w", rowTable.Name, err)
		}
		rows[i] = r
		for _, col := range rowTable.PrimaryKey {
			pks[i] = append(pks[i], r[rowTable.ColumnIndex(col)])
		}
		encKeys[i] = codec.EncodeKey(pks[i], nil)
	}
	n := len(recs)

	// btree: one node's share of the store's keys (RF 2 over 4 nodes).
	all := cl.GetRange(kvstore.RangeRequest{})
	share := max(1, len(all)*2/nodes)
	off := rng.Intn(len(all) - share + 1)
	items := all[off : off+share]
	perm := rng.Perm(share)
	var tree *btree.Tree
	c := p.measure("btree.put", func(i int) {
		if i%share == 0 {
			tree = btree.New()
		}
		kv := items[perm[i%share]]
		tree.Put(kv.Key, kv.Value)
	})
	m["btree.put_ns"] = metric{c.ns, "ns"}
	tree = btree.New()
	for _, kv := range items {
		tree.Put(kv.Key, kv.Value)
	}
	c = p.measure("btree.get", func(i int) { tree.Get(items[perm[i%share]].Key) })
	m["btree.get_ns"] = metric{c.ns, "ns"}
	c = p.measure("btree.ascend10", func(i int) {
		k := 0
		tree.Ascend(items[perm[i%share]].Key, nil, func(btree.Item) bool { k++; return k < 10 })
	})
	m["btree.ascend10_ns"] = metric{c.ns, "ns"}

	// codec and value on the workload's keys and rows.
	c = p.measure("codec.encode_key", func(i int) { codec.EncodeKey(pks[i%n], nil) })
	m["codec.encode_key_ns"] = metric{c.ns, "ns"}
	c = p.measure("codec.decode_key", func(i int) { codec.DecodeKey(encKeys[i%n], len(pks[i%n]), nil) })
	m["codec.decode_key_ns"] = metric{c.ns, "ns"}
	c = p.measure("value.encode_row", func(i int) { value.EncodeRow(rows[i%n]) })
	m["value.encode_row_ns"] = metric{c.ns, "ns"}
	dst := make(value.Row, len(rowTable.Columns))
	c = p.measure("value.decode_row_into", func(i int) { value.DecodeRowInto(dst, recs[i%n].Value) })
	m["value.decode_row_into_ns"] = metric{c.ns, "ns"}
	m["value.decode_row_into_allocs"] = metric{c.allocs, "count"}

	// kvstore client on the loaded cluster: point keys the workload looks
	// up, record ranges it scans.
	points := make([][]byte, probeSample)
	for i := range points {
		points[i] = index.RecordKeyFromPK(pointTable, pointKey(rng))
	}
	c = p.measure("kvstore.get", func(i int) { cl.Get(points[i%len(points)]) })
	m["kvstore.get_ns"], m["kvstore.get_bytes"] = metric{c.ns, "ns"}, metric{c.bytes, "B"}
	c = p.measure("kvstore.multiget10", func(i int) {
		j := i * 10 % (len(points) - 10)
		cl.MultiGet(points[j : j+10])
	})
	m["kvstore.multiget10_ns"], m["kvstore.multiget10_bytes"] = metric{c.ns, "ns"}, metric{c.bytes, "B"}
	rangeReq := func(i int) kvstore.RangeRequest {
		return kvstore.RangeRequest{Start: recs[i%n].Key, End: tableEnd, Limit: 10}
	}
	c = p.measure("kvstore.range10", func(i int) { cl.GetRange(rangeReq(i)) })
	m["kvstore.range10_ns"] = metric{c.ns, "ns"}
	c = p.measure("kvstore.scatter10", func(i int) { cl.GetRangeScatter(rangeReq(i)) })
	m["kvstore.scatter10_ns"], m["kvstore.scatter10_bytes"] = metric{c.ns, "ns"}, metric{c.bytes, "B"}
	// Rewrite records with their current bytes: a real write path that
	// leaves the data unchanged.
	c = p.measure("kvstore.put", func(i int) { cl.Put(recs[i%n].Key, recs[i%n].Value) })
	m["kvstore.put_ns"], m["kvstore.put_bytes"] = metric{c.ns, "ns"}, metric{c.bytes, "B"}
	if err := cl.TakeErr(); err != nil {
		res.fail("kvstore probes: %v", err)
	}

	// parser on the workload's DML; core and analyze on its SELECTs.
	dml := fx.app.dml()
	c = p.measure("parser.parse", func(i int) {
		if _, err := parser.Parse(dml[i%len(dml)]); err != nil {
			res.fail("parse %q: %v", dml[i%len(dml)], err)
		}
	})
	m["parser.parse_us"], m["parser.parse_allocs"] = metric{c.ns / 1e3, "us"}, metric{c.allocs, "count"}
	clone := cat.Clone()
	var sels []*parser.Select
	var plans []*core.Plan
	for _, q := range qs {
		stmt, err := parser.Parse(q.SQL())
		if err != nil {
			return fmt.Errorf("probe: parse %q: %w", q.SQL(), err)
		}
		sel, ok := stmt.(*parser.Select)
		if !ok {
			return fmt.Errorf("probe: %q is not a SELECT", q.SQL())
		}
		plan, err := core.Compile(clone, sel)
		if err != nil {
			return fmt.Errorf("probe: compile %q: %w", q.SQL(), err)
		}
		sels, plans = append(sels, sel), append(plans, plan)
	}
	c = p.measure("core.compile", func(i int) { core.Compile(clone, sels[i%len(sels)]) })
	m["core.compile_us"] = metric{c.ns / 1e3, "us"}
	c = p.measure("analyze.bound", func(i int) { analyze.Plan(plans[i%len(plans)]) })
	m["analyze.bound_us"] = metric{c.ns / 1e3, "us"}

	if err := probePublicAPI(p, fx.app.piqlProbe(qs), opts.seed, res); err != nil {
		return err
	}
	return probeSim(p, recs, opts.seed, res)
}

// sampleKVs returns up to probeSample pairs drawn with rng, in a random
// order.
func sampleKVs(rng *rand.Rand, kvs []kvstore.KV) []kvstore.KV {
	perm := rng.Perm(len(kvs))
	out := make([]kvstore.KV, 0, probeSample)
	for _, i := range perm[:min(len(perm), probeSample)] {
		out = append(out, kvs[i])
	}
	return out
}

// probePublicAPI measures a point query through piql.DB.Prepare and
// Query.Execute on a database holding a sample of the workload's rows.
func probePublicAPI(p *prober, pq pointQuery, seed int64, res *result) error {
	const rows = 1000
	db := piql.Open(piql.Config{Seed: clusterSeed})
	for _, ddl := range pq.ddl {
		if err := db.Exec(ddl); err != nil {
			return fmt.Errorf("probe: piql ddl: %w", err)
		}
	}
	for i := 0; i < rows; i++ {
		if err := db.Exec(pq.insert, pq.row(i)...); err != nil {
			return fmt.Errorf("probe: piql insert: %w", err)
		}
	}
	q, err := db.Prepare(pq.sql)
	if err != nil {
		return fmt.Errorf("probe: piql prepare: %w", err)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(rows)
	c := p.measure("piql.point_query", func(i int) {
		k := pq.key(perm[i%rows])
		r, err := q.Execute(k)
		if err != nil || len(r.Rows) != 1 || !value.Equal(r.Rows[0][0], k) {
			res.fail("piql point query for %v returned %v, %v", k, r, err)
		}
	})
	res.metrics["piql.point_query_ns"] = metric{c.ns, "ns"}
	res.metrics["piql.point_query_allocs"] = metric{c.allocs, "count"}
	res.metrics["piql.point_query_bytes"] = metric{c.bytes, "B"}
	return nil
}

// probeSim measures the simulator's wall cost per KV operation: eight
// processes on a 4-node simulated cluster holding the sampled records
// alternate Get and 10-key MultiGet. The median of three runs is kept.
func probeSim(p *prober, recs []kvstore.KV, seed int64, res *result) error {
	id, start := p.tr.begin()
	defer p.tr.end(id, 0, id, "probe.sim", start)
	const procs, iters = 8, 200
	var ns, bytes []float64
	for r := 0; r < 3; r++ {
		env := sim.NewEnv()
		c := kvstore.New(kvstore.Config{Nodes: nodes, ReplicationFactor: 2, Seed: clusterSeed}, env)
		loader := c.NewClient(nil)
		for _, kv := range recs {
			loader.Put(kv.Key, kv.Value)
		}
		c.Rebalance()
		ops0 := c.TotalOps()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < procs; i++ {
			env.Spawn(func(sp *sim.Proc) {
				cl := c.NewClient(sp)
				rng := rand.New(rand.NewSource(seed + int64(i)))
				batch := make([][]byte, 10)
				for k := 0; k < iters; k++ {
					if k%2 == 0 {
						cl.Get(recs[rng.Intn(len(recs))].Key)
						continue
					}
					for j := range batch {
						batch[j] = recs[rng.Intn(len(recs))].Key
					}
					cl.MultiGet(batch)
				}
			})
		}
		env.Run(0)
		env.Stop()
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ops := float64(c.TotalOps() - ops0)
		ns = append(ns, float64(el.Nanoseconds())/ops)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	}
	res.metrics["sim.wall_ns_per_op"] = metric{median(ns), "ns"}
	res.metrics["sim.bytes_per_op"] = metric{median(bytes), "B"}
	return nil
}
