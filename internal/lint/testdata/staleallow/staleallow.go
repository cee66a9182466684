// Test fixture for stale-suppression detection: a //lint:allow whose
// analyzer ran but suppressed nothing is itself reported, at the
// directive's own position; so is a directive naming no registered
// analyzer. A directive that suppresses a real diagnostic stays
// silent, and so does one naming a registered analyzer outside the
// run.
package staleallow

import "sync/atomic"

type routing struct{ epoch int64 }

type cluster struct {
	routing atomic.Pointer[routing]
}

func (c *cluster) beginOp() *routing {
	return c.routing.Load()
}

// live: the directive suppresses a real routingclaim diagnostic, so it
// is not stale.
func (c *cluster) live() *routing {
	//lint:allow routingclaim — audit path, cluster quiesced by caller
	return c.routing.Load()
}

// stale: nothing on the next line violates routingclaim anymore; the
// leftover directive is reported.
func (c *cluster) stale() int64 {
	//lint:allow routingclaim — justified long ago, code since refactored // want `suppresses no diagnostic`
	return 42
}

// misnamed: directives naming no registered analyzer — a typo, or a
// retired analyzer — can never suppress anything.
func (c *cluster) misnamed() int64 {
	//lint:allow simslep — typo of simsleep // want `//lint:allow simslep names no registered analyzer`
	//lint:allow leaseswap — folded into atomicmix // want `//lint:allow leaseswap names no registered analyzer`
	//lint:allow cancelpath — retired // want `//lint:allow cancelpath names no registered analyzer`
	return 7
}

// outsideRun: simsleep is registered but not part of this run, so its
// directive is not audited here.
func (c *cluster) outsideRun() int64 {
	//lint:allow simsleep — audited only when simsleep runs
	return 8
}
