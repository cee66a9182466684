package main

import (
	"runtime"
	"sort"
	"time"

	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/value"
)

// caller runs the per-statement pass: every call into the engine is
// timed, its KV operations and allocation measured, and recorded as a
// span under the current pseudo-interaction. With checkBound set (the
// traced run's pass), a query whose measured operations exceed its
// plan's static bound plus the partition-walk slack fails the run.
//
// The slack: the bound counts logical key/value operations, a range
// scan being one, while Client.Ops counts requests, one per partition a
// scan visits (kvstore.Client.GetRange). A scan whose range straddles a
// split key is one operation but two requests. The ranges one query
// reads are disjoint, so each split key adds at most one request:
// walk = len(Cluster.Splits()). Calls that exceed the bare bound within
// the slack are counted (engine.<q>.walk_excess, engine.walk_excess),
// not failed.
type caller struct {
	s          *engine.Session
	res        *result
	tr         *tracer
	qs         map[string]*engine.Prepared // the workload's named statements
	checkBound bool
	walk       int64 // partition-walk slack: the cluster's split keys
	stats      map[string]*stmtStats

	iid, parent int64 // current pseudo-interaction
}

// stmtStats accumulates one named statement's calls.
type stmtStats struct {
	write          bool
	calls          int
	ns, ops, bytes float64
	bound          int64
	walkExcess     int // calls over the bare bound, within the walk slack
}

func newCaller(s *engine.Session, res *result, tr *tracer, qs map[string]*engine.Prepared, checkBound bool, walk int64) *caller {
	return &caller{s: s, res: res, tr: tr, qs: qs, checkBound: checkBound, walk: walk, stats: map[string]*stmtStats{}}
}

// interaction opens a pseudo-interaction; its statements become child
// spans. The returned function closes it.
func (c *caller) interaction(name string) func() {
	id, start := c.tr.begin()
	c.iid, c.parent = id, id
	return func() { c.tr.end(id, 0, id, name, start); c.parent = 0 }
}

// query executes a prepared statement and records it under name. An
// execution error counts as a failed operation and returns nil.
func (c *caller) query(name string, p *engine.Prepared, params ...value.Value) *exec.Result {
	var r *exec.Result
	err := c.measure(name, false, int64(p.Plan().OpBound()), func() (err error) {
		r, err = p.Execute(c.s, params...)
		return err
	})
	if err != nil {
		return nil
	}
	return r
}

// write executes a DML statement through Session.Exec (parse, index
// maintenance, KV writes) and records it under name.
func (c *caller) write(name, sql string, params ...value.Value) error {
	return c.measure(name, true, 0, func() error { return c.s.Exec(sql, params...) })
}

func (c *caller) measure(name string, write bool, bound int64, call func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops0 := c.s.Client().Ops()
	id, start := c.tr.begin()
	err := call()
	elapsed := time.Since(start)
	c.tr.end(id, c.parent, c.iid, "engine."+name, start)
	ops := c.s.Client().Ops() - ops0
	runtime.ReadMemStats(&m1)

	c.res.attempted++
	if err != nil {
		c.res.failed++
		c.res.note("%s: %v", name, err)
		return err
	}
	st := c.stats[name]
	if st == nil {
		st = &stmtStats{write: write, bound: bound}
		c.stats[name] = st
	}
	st.calls++
	st.ns += float64(elapsed.Nanoseconds())
	st.ops += float64(ops)
	st.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	if c.checkBound && !write && ops > bound {
		if ops > bound+c.walk {
			c.res.fail("%s: %d KV operations exceed the static bound %d plus the partition-walk slack %d", name, ops, bound, c.walk)
		} else {
			st.walkExcess++
		}
	}
	return nil
}

// check fails the run when ok is false.
func (c *caller) check(ok bool, format string, args ...any) {
	if !ok {
		c.res.fail(format, args...)
	}
}

// report adds each statement's per-call means to res.detail
// (engine.<q>.us/.ops/.bytes, and .bound and .walk_excess for queries),
// the read and write averages over statements and the calls over the
// bare bound to res.metrics.
func (c *caller) report(res *result) {
	names := make([]string, 0, len(c.stats))
	for n := range c.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var reads, writes []*stmtStats
	walkExcess := 0
	for _, n := range names {
		st := c.stats[n]
		k := float64(st.calls)
		res.detail["engine."+n+".us"] = metric{st.ns / k / 1e3, "us"}
		res.detail["engine."+n+".ops"] = metric{st.ops / k, "count"}
		res.detail["engine."+n+".bytes"] = metric{st.bytes / k, "B"}
		if st.write {
			writes = append(writes, st)
		} else {
			res.detail["engine."+n+".bound"] = metric{float64(st.bound), "count"}
			res.detail["engine."+n+".walk_excess"] = metric{float64(st.walkExcess), "count"}
			walkExcess += st.walkExcess
			reads = append(reads, st)
		}
	}
	mean := func(sts []*stmtStats, f func(*stmtStats) float64) float64 {
		sum := 0.0
		for _, st := range sts {
			sum += f(st) / float64(st.calls)
		}
		return sum / float64(max(1, len(sts)))
	}
	res.metrics["engine.read_us"] = metric{mean(reads, func(s *stmtStats) float64 { return s.ns }) / 1e3, "us"}
	res.metrics["engine.read_ops"] = metric{mean(reads, func(s *stmtStats) float64 { return s.ops }), "count"}
	res.metrics["engine.read_bytes"] = metric{mean(reads, func(s *stmtStats) float64 { return s.bytes }), "B"}
	res.metrics["engine.write_us"] = metric{mean(writes, func(s *stmtStats) float64 { return s.ns }) / 1e3, "us"}
	res.metrics["engine.write_ops"] = metric{mean(writes, func(s *stmtStats) float64 { return s.ops }), "count"}
	res.metrics["engine.walk_excess"] = metric{float64(walkExcess), "count"}
}

// expectStatements fails the run unless the pass executed every named
// statement at least once.
func (c *caller) expectStatements(writes ...string) {
	for label := range c.qs {
		if c.stats[statementName(label)] == nil {
			c.res.fail("statement %q never ran successfully in the pass", statementName(label))
		}
	}
	for _, w := range writes {
		if c.stats[w] == nil {
			c.res.fail("write %q never ran successfully in the pass", w)
		}
	}
}

// descending reports whether column col of rows is non-increasing.
func descending(rows []value.Row, col int) bool {
	for i := 1; i < len(rows); i++ {
		if value.Compare(rows[i-1][col], rows[i][col]) < 0 {
			return false
		}
	}
	return true
}

// ascending reports whether column col of rows is non-decreasing.
func ascending(rows []value.Row, col int) bool {
	for i := 1; i < len(rows); i++ {
		if value.Compare(rows[i-1][col], rows[i][col]) > 0 {
			return false
		}
	}
	return true
}
