// Package exec is the PIQL execution engine (Section 7): it runs
// compiled physical plans against the key/value store. Remote operators
// exploit the compiler's limit hints to batch their requests and can
// issue them in parallel; the three strategies of Section 8.5 —
// LazyExecutor, SimpleExecutor, ParallelExecutor — differ only in how
// those requests are issued.
//
// Because every compiled plan is statically bounded, operators
// materialize their (small) outputs; the Rows facade exposes the
// classic open/next/close iterator interface on top. The one exception
// to eager decoding is SortedIndexJoin: it merges its fetched streams
// lazily, decoding a record only when it becomes its stream's head, and
// under a Stop it builds no more rows than the Stop keeps.
package exec

import (
	"fmt"

	"piql/internal/core"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// Strategy selects how remote operators issue key/value requests.
type Strategy int

const (
	// Lazy requests one tuple at a time, like a traditional disk-based
	// engine — no batching, no parallelism.
	Lazy Strategy = iota
	// Simple batches each operator's requests using the compiler's limit
	// hints but waits for each batch before issuing the next.
	Simple
	// Parallel batches and issues all of an operator's requests to the
	// key/value store concurrently (the default).
	Parallel
)

// String returns the executor name used in the paper's Figure 12.
func (s Strategy) String() string {
	switch s {
	case Lazy:
		return "LazyExecutor"
	case Simple:
		return "SimpleExecutor"
	case Parallel:
		return "ParallelExecutor"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Ctx carries one execution's environment.
type Ctx struct {
	Client   *kvstore.Client
	Params   []value.Value
	Strategy Strategy
	// Resume holds per-remote-operator resume keys for paginated
	// queries; nil means start from the beginning. Run replaces it with
	// the state to pass to the next page.
	Resume ResumeState
	// Scratch optionally carries buffers reused across executions. A
	// Cursor threads the same Scratch through every page, so the Lazy
	// strategy's tuple-at-a-time pagination walk reuses one successor-key
	// buffer across all Next calls instead of allocating per tuple.
	Scratch *Scratch
}

// Scratch is a reusable buffer set for repeated executions of the same
// query (one page after another through a Cursor). The zero value is
// ready to use; a Scratch must not be shared between concurrent
// executions.
type Scratch struct {
	key []byte // successor-key buffer for the Lazy tuple-at-a-time walk
}

// ResumeState maps a remote operator's ordinal (leaf first) to the
// serialized position after the last tuple it returned. It is the whole
// of a client-side cursor's stored state, matching the paper's
// observation that only the last key of each uncompleted index scan
// needs to be remembered.
type ResumeState map[int][]byte

// Result is one (fully materialized) query result page.
type Result struct {
	// Rows are the projected output rows.
	Rows []value.Row
	// Names are the output column names.
	Names []string
	// More reports whether a paginated query may have further pages.
	More bool
	// Resume is the cursor state for the next page (nil when done or
	// not paginated).
	Resume ResumeState
}

// Run executes a compiled plan and returns its result (one page, for
// paginated queries).
func Run(plan *core.Plan, ctx *Ctx) (*Result, error) {
	if ctx.Params == nil {
		ctx.Params = value.Row{}
	}
	if len(ctx.Params) < plan.NumParams {
		return nil, fmt.Errorf("exec: query needs %d parameters, got %d", plan.NumParams, len(ctx.Params))
	}
	e := &executor{plan: plan, ctx: ctx, driverOrd: plan.PaginationDriver()}
	if plan.PageSize > 0 {
		e.nextResume = ResumeState{}
	}
	// Store reads degrade silently when replicas are down: a Get against
	// an unreachable partition reads as a miss and the client records the
	// condition on the side (Client.TakeErr). Clear any stale record from
	// an earlier operation, then surface what this execution deposits —
	// otherwise a partitioned range would quietly subtract rows from the
	// result instead of failing the query with a retryable error.
	e.ctx.Client.TakeErr()
	rows, err := e.run(plan.Root)
	if err != nil {
		return nil, err
	}
	if derr := e.ctx.Client.TakeErr(); derr != nil {
		return nil, fmt.Errorf("exec: degraded read: %w", derr)
	}
	res := &Result{Rows: rows, Names: plan.OutputNames}
	if plan.PageSize > 0 {
		res.More = len(rows) == plan.PageSize
		if res.More {
			res.Resume = e.nextResume
		}
	}
	return res, nil
}

type executor struct {
	plan       *core.Plan
	ctx        *Ctx
	remoteSeq  int
	nextResume ResumeState
	driverOrd  int
}

// nextRemoteOrdinal returns the next remote operator's ordinal and its
// incoming resume key. Remote ordinals are assigned leaf-first in
// execution order, matching plan.RemoteOps. Only the pagination-driving
// operator (plan.PaginationDriver) receives and stores resume state.
func (e *executor) nextRemoteOrdinal() (ord int, resume []byte) {
	ord = e.remoteSeq
	e.remoteSeq++
	if e.ctx.Resume != nil && ord == e.driverOrd {
		resume = e.ctx.Resume[ord]
	}
	return ord, resume
}

// storeResume records an operator's outgoing cursor position if it is
// the pagination driver (non-paginated executions keep no cursor state).
func (e *executor) storeResume(ord int, key []byte) {
	if e.nextResume != nil && ord == e.driverOrd && key != nil {
		e.nextResume[ord] = key
	}
}

func (e *executor) run(n core.Physical) ([]value.Row, error) {
	switch n := n.(type) {
	case *core.PKLookup:
		return e.runPKLookup(n)
	case *core.IndexScan:
		return e.runIndexScan(n)
	case *core.IndexFKJoin:
		return e.runFKJoin(n)
	case *core.SortedIndexJoin:
		return e.runSortedJoin(n, 0)
	case *core.LocalSelection:
		return e.runSelection(n)
	case *core.LocalSort:
		return e.runSort(n)
	case *core.LocalStop:
		return e.runStop(n)
	case *core.LocalProject:
		return e.runProject(n)
	case *core.LocalAgg:
		return e.runAgg(n)
	default:
		return nil, fmt.Errorf("exec: unknown physical operator %T", n)
	}
}

// evalPreds reports whether row passes every predicate.
func (e *executor) evalPreds(row value.Row, preds []core.LocalPred) (bool, error) {
	for _, p := range preds {
		ok, err := p.Eval(row, e.ctx.Params)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// filterResidual applies an operator's residual predicates.
func (e *executor) filterResidual(rows []value.Row, preds []core.LocalPred) ([]value.Row, error) {
	if len(preds) == 0 {
		return rows, nil
	}
	out := rows[:0]
	for _, row := range rows {
		keep, err := e.evalPreds(row, preds)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

// newRow allocates a combined row of the plan's width.
func (e *executor) newRow() value.Row {
	return make(value.Row, e.plan.RowWidth)
}

// placeRecord decodes a stored record directly into the combined row at
// the table's offset — no intermediate row allocation.
func placeRecord(row value.Row, offset int, rec []byte) error {
	if _, err := value.DecodeRowInto(row[offset:], rec); err != nil {
		return fmt.Errorf("exec: corrupt record: %w", err)
	}
	return nil
}

// getBatch resolves record keys according to the strategy: Lazy issues
// one Get per key (tuple at a time, the paper's strawman); Simple issues
// one batched request set with the per-node batches sequential; Parallel
// issues them concurrently. Missing keys yield nil entries.
func (e *executor) getBatch(keys [][]byte) [][]byte {
	switch e.ctx.Strategy {
	case Lazy:
		recs := make([][]byte, len(keys))
		for i, k := range keys {
			if v, ok := e.ctx.Client.Get(k); ok {
				recs[i] = v
			}
		}
		return recs
	case Simple:
		return e.ctx.Client.MultiGetSeq(keys)
	default:
		return e.ctx.Client.MultiGet(keys)
	}
}
