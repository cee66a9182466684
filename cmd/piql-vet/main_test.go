package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes a file tree under root from path→contents.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleasePathCrossPackageFacts is the releasepath acceptance test
// for cross-package facts: an acquire-helper in one package (justified
// with //lint:allow, which still exports the hold as a NetAcquires
// fact) and a caller in another package that leaks the hold on an
// early return. The caller's analysis sees the helper only through the
// first package's facts, so the report witnesses the imported hold.
func TestReleasePathCrossPackageFacts(t *testing.T) {
	tmp := t.TempDir()
	// The scratch module is also named piql so its packages count as
	// module-local to the analyzers.
	writeTree(t, tmp, map[string]string{
		"go.mod": "module piql\n\ngo 1.24\n",
		"lockutil/lockutil.go": `package lockutil

import "sync"

type Guard struct{ Mu sync.Mutex }

// BeginHold locks the guard and returns holding it: an intentional
// acquire-helper whose callers must call EndHold.
//
//lint:allow releasepath — acquire-helper contract: every BeginHold caller must EndHold
func BeginHold(g *Guard) {
	g.Mu.Lock()
}

// EndHold releases a hold taken by BeginHold.
func EndHold(g *Guard) {
	g.Mu.Unlock()
}
`,
		"user/user.go": `package user

import "piql/lockutil"

// LeakyHold forgets EndHold on the error path.
func LeakyHold(g *lockutil.Guard, bad bool) {
	lockutil.BeginHold(g)
	if bad {
		return
	}
	lockutil.EndHold(g)
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", tmp, "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exited %d (want 2)\nstderr: %s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, filepath.Join("user", "user.go")) || !strings.Contains(out, "lockutil.Guard.Mu") ||
		!strings.Contains(out, "releasepath") || !strings.Contains(out, "still held at this return") {
		t.Fatalf("diagnostic does not witness the imported hold:\n%s", out)
	}
	if strings.Contains(out, "staleallow") {
		t.Fatalf("the helper's //lint:allow must stay live:\n%s", out)
	}
}

// TestErrTaxonomyCrossPackageFacts is the errtaxonomy acceptance test
// for cross-package facts: kv's Put may return a transient error, and
// eng compares Put's error with ==, so eng's diagnostic must cite the
// fact from kv. Once eng matches with errors.Is the tree is clean, and
// -json still writes a payload: that file is the make ci artifact.
func TestErrTaxonomyCrossPackageFacts(t *testing.T) {
	tmp := t.TempDir()
	eng := `package eng

import "piql/kv"

// Stored compares a wrapped transient error with ==.
func Stored(node int) bool {
	err := kv.Put(node)
	return err == kv.ErrTransient
}
`
	writeTree(t, tmp, map[string]string{
		"go.mod": "module piql\n\ngo 1.24\n",
		"kv/kv.go": `package kv

import (
	"errors"
	"fmt"
)

// ErrTransient is the retryability sentinel.
var ErrTransient = errors.New("kv: transient")

// ErrNodeDown unwraps to the sentinel.
type ErrNodeDown struct{ Node int }

func (e *ErrNodeDown) Error() string { return fmt.Sprintf("node %d down", e.Node) }
func (e *ErrNodeDown) Unwrap() error { return ErrTransient }

// Put fails transiently while the node is down.
func Put(node int) error {
	if node < 0 {
		return &ErrNodeDown{Node: node}
	}
	return nil
}
`,
		"eng/eng.go": eng,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-C", tmp, "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exited %d (want 2)\n%s%s", code, stdout.String(), stderr.String())
	}
	var payload struct {
		Eng map[string][]struct{ Posn, Message string } `json:"piql/eng"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &payload); err != nil {
		t.Fatalf("-json payload: %v\n%s", err, stdout.String())
	}
	diags := payload.Eng["errtaxonomy"]
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "per fact from piql/kv") {
		t.Fatalf("eng's diagnostic does not cite kv's fact:\n%s", stdout.String())
	}

	writeTree(t, tmp, map[string]string{"eng/eng.go": strings.NewReplacer(
		`import "piql/kv"`, "import (\n\t\"errors\"\n\n\t\"piql/kv\"\n)",
		"err == kv.ErrTransient", "errors.Is(err, kv.ErrTransient)",
	).Replace(eng)})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-json", "-C", tmp, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean tree exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	var clean map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &clean); err != nil || len(clean) != 0 {
		t.Fatalf("clean -json run did not emit an empty JSON payload (%v):\n%s", err, stdout.String())
	}
}

// TestUnknownFlag: a flag piql-vet does not define is an operational
// error, not silently ignored.
func TestUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-standalone", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown flag exited %d (want 1):\n%s", code, stderr.String())
	}
}

// TestUpdateNeedsEscapeBudget: -update alone would run the module
// analysis and leave escape.budget as it was, so it is an operational
// error that names the flag it needs.
func TestUpdateNeedsEscapeBudget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-update", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-update without -escapebudget exited %d (want 1):\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-escapebudget") {
		t.Fatalf("error does not name -escapebudget:\n%s", stderr.String())
	}
}

// TestEscapeBudgetGate seeds a one-line heap-escape regression on a
// row-decode path in a scratch module and proves the gate trips: lint
// exits 2 citing the function and its budget. The clean module passes,
// and -update rewrites the budget to the measured counts.
func TestEscapeBudgetGate(t *testing.T) {
	tmp := t.TempDir()
	clean := `package codec

// DecodeRow parses a length-prefixed row without allocating.
func DecodeRow(b []byte) (int, []byte) {
	n := int(b[0])
	return n, b[1 : 1+n]
}
`
	writeTree(t, tmp, map[string]string{
		"go.mod":         "module piql\n\ngo 1.24\n",
		"codec/codec.go": clean,
		"escape.budget":  "piql/codec.DecodeRow 0\n",
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean module exited %d:\n%s", code, stderr.String())
	}

	// The regression: one line that hands a pointer to the heap.
	leaky := `package codec

var sink *int

// DecodeRow parses a length-prefixed row; the regression leaks a
// counter to the heap.
func DecodeRow(b []byte) (int, []byte) {
	n := int(b[0])
	leak := new(int)
	sink = leak
	return n, b[1 : 1+n]
}
`
	writeTree(t, tmp, map[string]string{"codec/codec.go": leaky})
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("seeded escape regression exited %d (want 2)\nstderr: %s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "piql/codec.DecodeRow") || !strings.Contains(out, "over its budget of 0") {
		t.Fatalf("gate does not cite function and budget:\n%s", out)
	}

	// -update ratchets the budget to the measured count, after which
	// the same tree passes.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-update", "-C", tmp}, &stdout, &stderr); code != 0 {
		t.Fatalf("-update exited %d:\n%s", code, stderr.String())
	}
	budget, err := os.ReadFile(filepath.Join(tmp, "escape.budget"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(budget), "piql/codec.DecodeRow 1") {
		t.Fatalf("-update did not record the measured count:\n%s", budget)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr); code != 0 {
		t.Fatalf("updated budget still fails (%d):\n%s", code, stderr.String())
	}

	// A stale entry for a function that no longer exists is an error,
	// not a silent pass.
	writeTree(t, tmp, map[string]string{"escape.budget": "piql/codec.Gone 0\n"})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale budget entry exited %d (want 1):\n%s", code, stderr.String())
	}
}

// TestAtomicMixCrossPackageFacts is the atomicmix acceptance test for
// cross-package facts: a kvstore-like package whose only atomic
// discipline is a function-style atomic.AddUint64 on a plain uint64
// field, and an engine-like package that reads the same field plainly.
// The mixed access is visible only through the first package's
// AtomicFields fact — nothing in the reader's package is atomic.
func TestAtomicMixCrossPackageFacts(t *testing.T) {
	tmp := t.TempDir()
	writeTree(t, tmp, map[string]string{
		"go.mod": "module piql\n\ngo 1.24\n",
		"kv/kv.go": `package kv

import "sync/atomic"

// Stats counts per-node operations; Hits is written by concurrent
// request goroutines, so every access must be atomic.
type Stats struct{ Hits uint64 }

// Bump is the sanctioned write path.
func Bump(s *Stats) {
	atomic.AddUint64(&s.Hits, 1)
}
`,
		"eng/eng.go": `package eng

import "piql/kv"

// Report reads the counter plainly — a torn read against Bump's
// atomic writes, witnessed only through kv's AtomicFields fact.
func Report(s *kv.Stats) uint64 {
	return s.Hits
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", tmp, "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exited %d (want 2)\nstderr: %s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "plain read of field kv.Stats.Hits") ||
		!strings.Contains(out, "per fact from piql/kv") ||
		!strings.Contains(out, "atomicmix") {
		t.Fatalf("diagnostic does not witness the imported atomic field:\n%s", out)
	}
}

// TestStandaloneCleanTree runs piql-vet over the whole module: the tree must be clean (every finding fixed or justified),
// and the lock hierarchy must contain the documented roots.
func TestStandaloneCleanTree(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-lockgraph", "-C", repoRoot, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("module run exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	graph := stdout.String()
	for _, want := range []string{
		"kvstore.Cluster.rebalanceMu",
		"kvstore.Cluster.faultMu",
		"kvstore.move.mu",
		"kvstore.node.mu",
		"engine.Engine.writeGate",
	} {
		if !strings.Contains(graph, want) {
			t.Errorf("lock hierarchy missing %s:\n%s", want, graph)
		}
	}
}
