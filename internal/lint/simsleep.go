package lint

import (
	"go/ast"
)

// SimSleep enforces the simulation's virtual-clock discipline: code in
// a package that imports the discrete-event simulator must never block
// on or schedule against the real clock. The simulated cluster advances
// a virtual clock — (*sim.Proc).Sleep yields to the scheduler;
// time.Sleep blocks the OS thread, stalls every simulated process
// sharing it, and measures nothing (virtual time does not pass while it
// sleeps). The timer constructors are the same mistake one step
// removed: time.After, time.Tick, time.NewTimer, time.NewTicker, and
// time.AfterFunc arm a real-clock firing — a channel that becomes ready
// while virtual time stands still — so a simulated process selecting
// on one observes an event the simulation never scheduled. Fault
// injection is the usual temptation: lease expiries and fault windows
// must be expressed in the clock the code under test actually runs on.
var SimSleep = &Analyzer{
	Name: "simsleep",
	Doc:  "packages using the simulator must sleep and time in virtual time, not with time.Sleep or wall-clock timers",
	Run:  runSimSleep,
}

// simClockForbidden maps each forbidden time-package function to its
// diagnostic's advice. time.Now is permitted: reading the clock does
// not schedule anything (lease expiry bookkeeping reads it
// deliberately).
var simClockForbidden = map[string]string{
	"Sleep":     "use (*sim.Proc).Sleep so virtual time advances",
	"After":     "wall-clock timers fire outside virtual time",
	"Tick":      "wall-clock timers fire outside virtual time",
	"NewTimer":  "wall-clock timers fire outside virtual time",
	"NewTicker": "wall-clock timers fire outside virtual time",
	"AfterFunc": "wall-clock timers fire outside virtual time",
}

func runSimSleep(pass *Pass) {
	if !importsSim(pass.Files) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			advice, forbidden := simClockForbidden[sel.Sel.Name]
			if id, ok := sel.X.(*ast.Ident); forbidden && ok && id.Name == "time" && id.Obj == nil {
				pass.Reportf(call.Pos(), "time.%s in simulation code: %s", sel.Sel.Name, advice)
			}
			return true
		})
	}
}
