GO ?= go

.PHONY: build vet test race fuzz-seeds faults crash resync rs obs allocs bench-smoke benchmark-smoke benchmark-compare meta-ha migrate staticcheck loc ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every checked-in fuzz corpus seed (including the wire-protocol
# ChecksumRange messages) as regular tests, without open-ended fuzzing.
fuzz-seeds:
	$(GO) test -run Fuzz ./internal/wire ./internal/extent

# The deterministic fault-schedule suite: injected server hangs, ghost
# parity locks, partitions and flapping servers, run twice under the race
# detector to prove the scenarios are timing-independent.
faults:
	$(GO) test -race -count=2 -run 'TestFaultSchedule|TestAutoFailover' ./internal/cluster

# The crash-consistency suite for the RAID5 write hole: client death
# mid-RMW, parity-server crash-restart with intent-journal replay, lease
# heartbeats under a stalled write, lease/intent metrics, and the
# real-TCP iod bounce — run twice under the race detector to prove the
# schedules are deterministic.
crash:
	$(GO) test -race -count=2 -run 'TestCrashClientMidRMW|TestCrashServerMidParityWrite|TestLeaseRenewalKeepsLock' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestMetricsLeaseAndIntent|TestRestartedIODReadmission' .

# The online-resync suite: dirty-region tracking by degraded writes, delta
# replay with a concurrent foreground writer, the background-pass mechanism
# (cursor rules under both policies, the terminal advance as a barrier, the
# degraded dual-write nesting), the epoch-mismatch full-rebuild fallback,
# abort/rerun convergence, and dirty-log durability across a replica crash —
# run twice under the race detector because the delta scenario is genuinely
# concurrent.
resync:
	$(GO) test -race -count=2 -run 'TestResync|TestDirtyLog|TestRebuildAbort|TestPass' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestMetricsResyncCounters' .

# The parity-engine suite: the GF(256) field and RS(k,m) matrix unit and
# property tests; the RS(4,2) double-fault cluster scenarios — degraded
# reads with any two servers dead, double rebuild, delta resync and
# multi-parity crash-restart intent replay; and the proofs that RAID5 is the
# engine's m = 1 case — the seeded Raid5 ≡ RS(k,1) differential (stores,
# read-backs and request counts), the golden per-operation request table,
# the NoLock/NPC ablations and the scrubber's leased lock — under the race
# detector.
rs:
	$(GO) test -race -count=2 ./internal/gf256
	$(GO) test -race -count=2 -run 'TestRS|TestParityEngine' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestMultiParityPlacement' ./internal/raid

# The observability suite: the lock-free histogram's concurrency property
# test under the race detector, the metrics/snapshot drift check, the
# /metrics + /statusz endpoint tests, and the live-cluster stats and
# fd-leak regressions over real TCP.
obs:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestMetricsSnapshotDrift' ./internal/client
	$(GO) test -race -run 'TestDialCloseNoFDLeak|TestStatsOverLiveCluster' .
	$(GO) test -race ./cmd/csar

# The hot-path suite, both directions: allocation-budget regressions
# (pooled frame marshal, decode without a payload copy, full-stripe WriteAt,
# the 16 KiB read-modify-write — each for RAID5 and RS(4,2), the two shapes
# of the one parity engine — and 1 MiB ReadAt through the whole stack), the
# borrow/release and owned-gather rules of the payload pool (poison-on-put
# property test, late responses, abandoned sends, Data-is-a-view, a held
# payload moving to its frame once, size classes), the pending-map drain
# regression, the stripe-pipelining overlap/serialization tests and the
# store's sync-cost test — all under the race detector so the zero-copy paths
# are proven safe and lean at once. The race detector makes sync.Pool drop
# puts at random, so the bytes-per-byte budgets are checked by one more run
# without it.
allocs:
	$(GO) test -race -run 'TestMarshalFrameAllocs|TestUnmarshalAllocs|TestMarshalFrameMatchesMarshal|TestUnmarshalAliasesData|TestReadRespRelease|TestHeldPayloadMovesToFrame|TestBufPoolClasses|TestPoolPoisonCorrectness|TestLateReadRespIsRecycled|TestAbandonedSendOwnsItsPayload|TestTimedOutSendDoesNotAliasCallerBuffer|TestTimedOutCallsDrainPendingMap' ./internal/wire ./internal/rpc
	$(GO) test -race -run 'TestFullStripeWriteAllocs|TestRMWWriteAllocs|TestReadAtAllocs|TestPipelinedStripeWritesOverlap|TestSameStripeWritesSerializeThroughParityLock' ./internal/cluster
	$(GO) test -race -run 'TestSyncCostIndependentOfCacheSize|TestDifferentialAgainstScanReference' ./internal/simdisk
	$(GO) test -run 'TestFullStripeWriteAllocs|TestRMWWriteAllocs|TestReadAtAllocs' ./internal/cluster

# A tiny end-to-end run of the real csar-bench binary plus the schema-v2
# validation test, so BENCH_N.json files stay comparable across PRs.
bench-smoke:
	$(GO) build -o /tmp/csar-bench-smoke ./cmd/csar-bench
	/tmp/csar-bench-smoke -exp fig3 -div 2048 -scale 10ms -servers 6 -json /tmp/csar-bench-smoke.json
	$(GO) test -run TestBenchSmokeSchema ./internal/bench

# benchmark/ is a nested module that `go build ./...` never compiles: build
# it from scratch against this checkout's internal/... and run every
# workload on a few hundred operations, so a change that breaks it fails
# here. The rm matters — run.sh reuses any binary newer than the sources,
# including one another commit left behind.
benchmark-smoke:
	rm -rf .bench_build
	bash benchmark/run.sh --smoke

# Measure this checkout the way the committed ledgers were measured — clean
# build, seeds 1-5, all eight workloads, untraced — and compare it with the
# newest results/ledger-<pr>.jsonl: every end-to-end metric against its bound.
# About a quarter of an hour; run nothing else on the box meanwhile. A perf PR
# commits its own ledger the same way (--out results/ledger-<pr>.jsonl).
benchmark-compare:
	rm -rf .bench_build
	for s in 1 2 3 4 5; do \
		bash benchmark/run.sh --workload all --seed $$s --trace 0 --out .bench_build/ledger-checkout.jsonl || exit 1; \
	done
	bash benchmark/run.sh --compare "$$(ls results/ledger-*.jsonl | sort -V | tail -n 1)" .bench_build/ledger-checkout.jsonl

# The metadata high-availability suite: WAL torn-tail recovery at every
# byte offset, crash-mid-compaction replay, primary→standby replication
# with epoch fencing, deterministic promotion, and the kill-the-primary-
# mid-create-stream failover acceptance test — run twice under the race
# detector because replication ships concurrently with client retries.
meta-ha:
	$(GO) test -race -count=2 -run 'TestWAL|TestReplication|TestStandby|TestPromotion|TestDeposed|TestLagging|TestTryPromote|TestReplicated|TestStatsRPC' ./internal/meta
	$(GO) test -race -count=2 -run 'TestManagerFailoverMidCreateStream|TestManagerGroupInMemory' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestManagerFailoverOverTCP' .

# The online scheme-migration suite: the manager's pin/commit/abort fences
# with WAL, snapshot and standby-replication durability, the background-pass
# mechanism resync shares, the full scheme-transition matrix, abort/rerun
# convergence, the write-window stream regressions that ride the same PR,
# and the acceptance scenario — Hybrid -> RS(4,2) under concurrent writers
# surviving an I/O-server crash and a manager failover — run twice under
# the race detector because the migration copy is genuinely concurrent
# with foreground writers.
migrate:
	$(GO) test -race -count=2 -run 'TestSetScheme|TestCommitScheme|TestAbortScheme|TestMigration' ./internal/meta
	$(GO) test -race -count=2 -run 'TestMigrate|TestPass|TestAbortMigration' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestStream|TestWindow' ./internal/client .

# Static analysis beyond go vet, when the tool is installed (CI images
# that lack it skip the target rather than fail it — nothing is
# downloaded at build time).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# The non-test Go line count, measured the way ROADMAP item 2 measures it
# (the nested benchmark/ module excluded), so every PR that claims to have
# made the tree smaller reports the same number.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

ci: vet staticcheck build race fuzz-seeds faults crash resync rs obs allocs bench-smoke benchmark-smoke meta-ha migrate
