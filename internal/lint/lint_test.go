package lint_test

import (
	"path/filepath"
	"testing"

	"piql/internal/lint"
	"piql/internal/lint/linttest"
)

// byName fetches an analyzer through the registry, so deleting a
// registration from lint.Analyzers fails that analyzer's fixture suite
// here rather than silently shrinking piql-vet.
func byName(t *testing.T, name string) *lint.Analyzer {
	t.Helper()
	a := lint.ByName(name)
	if a == nil {
		t.Fatalf("analyzer %q is not registered in lint.Analyzers", name)
	}
	return a
}

func TestRoutingClaim(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "routingclaim"), byName(t, "routingclaim"))
}

func TestEnvelopeIntegrity(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "envelopeintegrity"), byName(t, "envelopeintegrity"))
}

func TestSimSleep(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simsleep"), byName(t, "simsleep"))
}

func TestSimSleepIgnoresNonSimPackages(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simsleepnosim"), byName(t, "simsleep"))
}

// TestSimTimer drives simsleep's wall-clock timer constructors.
func TestSimTimer(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simtimer"), byName(t, "simsleep"))
}

// TestLeaseSwap drives atomicmix's copy-on-write rule over the kvstore
// lease-table shapes, appends included.
func TestLeaseSwap(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "leaseswap"), byName(t, "atomicmix"))
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "lockorder"), byName(t, "lockorder"))
}

func TestHoldBlock(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "holdblock"), byName(t, "holdblock"))
}

func TestErrTaxonomy(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "errtaxonomy"), byName(t, "errtaxonomy"))
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "goroleak"), byName(t, "goroleak"))
}

func TestReleasePath(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "releasepath"), byName(t, "releasepath"))
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "atomicmix"), byName(t, "atomicmix"))
}

func TestSnapshotEscape(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "snapshotescape"), byName(t, "snapshotescape"))
}

// TestStaleAllow drives the framework-level stale-directive report: a
// //lint:allow for an analyzer that ran but suppressed nothing, or for
// a name no analyzer is registered under, is itself diagnosed, at the
// directive's position.
func TestStaleAllow(t *testing.T) {
	linttest.RunAnalyzers(t, filepath.Join("testdata", "staleallow"),
		[]*lint.Analyzer{byName(t, "routingclaim")})
}

// TestKVStoreFacts analyzes the real module in dependency order up to
// piql/internal/kvstore and checks the facts its dependents rely on:
// TestAndSet may return a transient error and acquires node locks, and
// the package exports lock-order edges.
func TestKVStoreFacts(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := loader.ScanModule()
	if err != nil {
		t.Fatal(err)
	}
	store := lint.NewFactStore()
	for _, sp := range scan {
		unit, err := loader.LoadDir(sp.Dir, sp.ImportPath)
		if err != nil {
			t.Fatal(err)
		}
		unit.Facts = store
		_, facts := lint.RunUnit(unit, lint.Analyzers)
		if sp.ImportPath != "piql/internal/kvstore" {
			store.Add(sp.ImportPath, facts)
			continue
		}
		if facts == nil {
			t.Fatal("kvstore exported no facts")
		}
		tas, ok := facts.Funcs["(*Client).TestAndSet"]
		if !ok {
			t.Fatal("kvstore facts missing (*Client).TestAndSet")
		}
		if !tas.Transient {
			t.Errorf("TestAndSet fact should be transient: %+v", tas)
		}
		if len(tas.Acquires) == 0 {
			t.Errorf("TestAndSet fact should acquire node locks: %+v", tas)
		}
		if len(facts.LockEdges) == 0 {
			t.Error("kvstore facts exported no lock edges")
		}
		return
	}
	t.Fatal("module scan did not reach piql/internal/kvstore")
}
