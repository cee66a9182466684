package lint_test

import (
	"testing"

	"piql/internal/lint"
)

// FuzzPackageFacts hammers the facts decoder with arbitrary bytes. The
// contract under test is the one drivers rely on: DecodeFacts never
// panics, never returns facts alongside an error, and anything it
// accepts survives an encode/decode round trip. The checked-in corpus
// under testdata/fuzz/FuzzPackageFacts — truncated JSON, wrong
// versions, shape-confused payloads — replays on every plain `go
// test`, so the regressions stay pinned even where the fuzz engine
// never runs.
func FuzzPackageFacts(f *testing.F) {
	valid := lint.EncodeFacts(&lint.PackageFacts{
		Funcs: map[string]lint.FuncFact{
			"(*Client).TestAndSet": {
				Blocks:      true,
				BlockPath:   "kvstore.park",
				Acquires:    []string{"kvstore.node.mu"},
				Transient:   true,
				ErrTypes:    []string{"*kvstore.ErrNodeDown"},
				ParkRisk:    "send on kvstore.acks with no provable capacity (client.go:1)",
				NetAcquires: []string{"kvstore.Cluster.rebalanceMu"},
				NetReleases: []string{"kvstore.Cluster.faultMu"},
			},
		},
		LockEdges: []lint.LockEdge{{From: "a", To: "b", Pos: "x.go:1"}},
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not json"))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"funcs":{"F":{"blocks":true}}}`))
	f.Add([]byte(`{"version":2,"funcs":{"":{"blocks":true}}}`))
	f.Add([]byte(`{"version":2,"funcs":{"F":{"acquires":[""]}}}`))
	f.Add([]byte(`{"version":2,"lockEdges":[{"from":"","to":"b"}]}`))
	f.Add([]byte(`{"version":2,"funcs":{"F":{"acquires":"notalist"}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := lint.DecodeFacts(data)
		if err != nil && pf != nil {
			t.Fatalf("DecodeFacts returned facts alongside error %v", err)
		}
		if pf == nil {
			return
		}
		re, rerr := lint.DecodeFacts(lint.EncodeFacts(pf))
		if rerr != nil || re == nil {
			t.Fatalf("accepted facts did not survive a round trip: %v", rerr)
		}
		if len(re.Funcs) != len(pf.Funcs) || len(re.LockEdges) != len(pf.LockEdges) {
			t.Fatalf("round trip changed shape: %d/%d funcs, %d/%d edges",
				len(re.Funcs), len(pf.Funcs), len(re.LockEdges), len(pf.LockEdges))
		}
	})
}
