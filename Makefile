# The ci target is the gate: a missing go.mod (or any build/vet/race
# regression) fails it before anything else runs.
GO ?= go

.PHONY: all ci vet lint build test race chaos chaos-faults bench bench-all bench-smoke experiments

all: ci

# ci publishes bin/lint-findings.json (the piql-vet -json payload from
# the lint step) as its static-analysis artifact; on a clean run the
# payload is an empty findings object, so the file always exists for
# collection.
ci: lint build race chaos-faults bench-smoke
	@echo "lint findings artifact: bin/lint-findings.json"

vet:
	$(GO) vet ./...

# lint is the static gate: formatting, the standard vet analyzers
# (whose lostcancel check covers cancel-func leak paths), and the
# project's own eleven analyzers (internal/lint) — routing-snapshot
# claims, envelope integrity, virtual clock discipline (sleeps and
# wall-clock timers), lock-order cycles, blocking-under-mutex,
# transient-error taxonomy conformance, goroutine-lifecycle
# termination (goroleak), release-on-all-exits for mutexes and
# beginOp/endOp claims (releasepath), the hot-path heap-escape budget
# (escapebudget), and the two value-provenance analyzers:
# atomic/plain access mixing and copy-on-write of atomically published
# tables, lease tables included (atomicmix), and snapshot lifetime
# escapes (snapshotescape). Per-function facts (locks held, may-block,
# error types, net acquire/release, park risk, atomic fields,
# acquire-helper results) propagate across packages, so diagnostics
# here are interprocedural. Suppressions are //lint:allow directives
# at the annotated site; stale or misnamed directives are themselves
# findings. See the "Static analysis" section of README.md.
#
# Every run analyzes the whole module from source. Findings are also
# written as bin/lint-findings.json (the -json payload, an empty
# object on a clean tree), which `make ci` publishes as its lint
# artifact.
#
# The escape gate compares `go build -gcflags=-m` attribution against
# the checked-in escape.budget. After deliberately changing a hot
# path's allocation profile, re-measure with:
#   make lint ESCAPE_BUDGET=update
# which rewrites escape.budget in place (review the diff like any
# other file). Any other value leaves the budget enforced as-is.
#
# Without make in the loop:
#   go run ./cmd/piql-vet ./...              # from source, whole module
#   go run ./cmd/piql-vet -json ./...        # findings as JSON on stdout
#   go run ./cmd/piql-vet -lockgraph ./...   # print the lock hierarchy
#   go run ./cmd/piql-vet -escapebudget ./...  # escape gate only
VETTOOL = bin/piql-vet
ESCAPE_BUDGET ?=

lint:
	@out=$$(gofmt -l cmd internal *.go); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o $(VETTOOL) ./cmd/piql-vet
	$(VETTOOL) -json ./... > bin/lint-findings.json || \
		{ cat bin/lint-findings.json; exit 1; }
	@if [ "$(ESCAPE_BUDGET)" = "update" ]; then \
		echo "$(VETTOOL) -escapebudget -update ./..."; \
		$(VETTOOL) -escapebudget -update ./... && echo "escape.budget rewritten"; \
	else \
		echo "$(VETTOOL) -escapebudget ./..."; \
		$(VETTOOL) -escapebudget ./...; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector, including the
# concurrent-session tests (TestConcurrentSessions,
# TestPublicAPIConcurrentUse), the simulated scatter-gather range
# reads (TestGetRangeScatter*, TestScatterConcurrentClients), and the
# online-maintenance chaos tests (TestChaosOnlineOperations,
# TestRebalanceUnderTraffic, TestCreateIndexUnderConcurrentWrites,
# TestInsertRollbackRacingDelete) that gate index backfill and
# rebalance under live writes.
race:
	$(GO) test -race ./...

# chaos runs just the online-maintenance gate, raced — the quick check
# after touching the index lifecycle, write path, or routing table. It
# includes the conditional-writer fleet (TestChaosOnlineOperations and
# TestTestAndSetLinearizableAcrossRebalance model-check every TestAndSet
# outcome across repeated chunked rebalances), the chunked-copy
# regressions, and the replica-convergence gates (RunChaos's
# byte-for-byte per-key audit across all replicas after every storm,
# plus TestReplicasConvergeUnderRacingWrites racing unordered Put/Delete
# across rebalances and TestAsyncReplicationRacingWritersConverge for
# the lagged-replica write-order inversion).
chaos:
	$(GO) test -race -run 'TestChaosOnlineOperations|TestRebalanceUnderTraffic|TestRebalanceRangeReadsUnderTraffic|TestCreateIndexUnderConcurrentWrites|TestInsertRollbackRacingDelete|TestTestAndSetLinearizableAcrossRebalance|TestRebalanceChunkedCopy|TestRebalanceDeleteInEarlierChunkNoResurrect|TestCreateIndexRacingDeletesNoDangling|TestSimulatedCreateIndexDrainsWriters|TestReplicasConvergeUnderRacingWrites|TestAsyncReplicationRacingWritersConverge|TestAsyncCatchUpRespectsOwnership|TestBackfillStampLosesToRacingDelete' ./internal/...

# chaos-faults is the failure-injection gate, raced and explicit in ci:
# the chaos storms with a node crashed or partitioned mid-rebalance
# (plus the falsification subtests proving read failover and catch-up
# replay are each load-bearing), lease-expiry fencing recovery, quorum
# staleness bounds, and the catch-up/crash interleavings.
chaos-faults:
	$(GO) test -race -run 'TestChaosSurvivesKillRestartMidRebalance|TestChaosSurvivesPartitionedReplica|TestLeaseExpiryUnwedgesTestAndSet|TestQuorumReadBoundsStaleness|TestAsyncCatchUpKillRestartInterleaving|TestReadRepairLaggedThenKilledReplica|TestErrorChainsRoundTrip|TestRetryableClassification|TestDegradedReadSurfacesRetryable' ./internal/...

# The hot-path benchmarks tracked across PRs: raw engine overhead (a
# point lookup and the thoughtstream SortedIndexJoin), the three
# execution strategies, and concurrent-session throughput.
BENCH_HOT = BenchmarkExecuteFindUser|BenchmarkExecuteThoughtstream|BenchmarkFig12ExecutionStrategies|BenchmarkConcurrentSessions

# bench runs the hot benchmarks five times each (-count 5, the default
# one-second benchtime) with allocation stats and records the raw run
# as the next perf-trajectory artifact: BENCH_<N>.json, one past the
# highest N already present, so an earlier run is never overwritten.
# Its first line is {"git_sha", "nproc"}, the SHA suffixed -dirty when
# the tree has uncommitted changes; the rest are newline-delimited
# test2json events, including every ns/op / B/op / allocs/op line, the
# CPU model `go test` prints and GOMAXPROCS as the -N suffix on each
# benchmark name. It prints the name it chose; compare the new file
# against the previous one. A failed run leaves no file behind.
bench:
	@n=$$(ls BENCH_*.json 2>/dev/null | sed -nE 's/^BENCH_([0-9]+)\.json$$/\1/p' | sort -n | tail -1); \
	out=BENCH_$$(( $${n:-0} + 1 )).json; \
	echo "make bench: writing $$out"; \
	printf '{"git_sha":"%s","nproc":%s}\n' "$$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)" "$$(nproc)" > $$out; \
	$(GO) test -run xxx -bench '$(BENCH_HOT)' -count 5 -benchmem -v -json . >> $$out || { rm -f $$out; exit 1; }; \
	grep -oE '(Benchmark[A-Za-z]+)?[^"]*allocs/op' $$out | sed 's/\\t/  /g' || true

# bench-smoke is the short-mode gate inside ci: the two cheapest hot
# benchmarks, enough to catch an executor hot path that stopped
# compiling or regressed to pathological allocation.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkExecuteFindUser|BenchmarkExecuteThoughtstream' -benchtime 100x -benchmem .

# bench-all runs every paper figure benchmark plus the concurrent-session
# throughput benchmarks once.
bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x -v .

# experiments regenerates the paper's tables and figures in full.
experiments:
	$(GO) run ./cmd/piql-bench -experiment all
