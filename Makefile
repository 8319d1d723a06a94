GO ?= go

.PHONY: build vet test race port32 fuzz-seeds faults crash resync rs obs allocs bench-smoke benchmark-smoke benchmark-compare meta-ha migrate staticcheck loc ci

build:
	$(GO) build ./...

# go vet, and gofmt over every Go file outside dot-directories (such as
# .bench_build's module cache): any file it would reformat fails the gate.
vet:
	$(GO) vet ./...
	@out="$$(find . -name '.?*' -prune -o -name '*.go' -print | xargs gofmt -l)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The whole tree vetted and tested as a 32-bit program. On 386 a 64-bit
# atomic needs an 8-byte-aligned word, which Go guarantees only for the
# first word of an allocation: this gate is what proves every counter set
# (obs.NewCounters allocates each one whole) is aligned, and that no length
# prefix wraps negative when converted to a 32-bit int.
port32:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./...

# Run every checked-in fuzz corpus seed (including the wire-protocol
# ChecksumRange messages, the member Read and WriteData of every store, the
# rpc client's response sequences landing in a Read's Into, of the data,
# mirror and parity stores — matching, wrong kind, wrong length, error, late and
# truncated frames — and its writes sent from the caller's slice over a
# connection that parks or fails at a chosen byte of the request) as
# regular tests, without open-ended fuzzing, plus
# the wire golden bytes (every message, plain and framed, against
# internal/wire/testdata/golden.hex) and the bound on what a hostile slice
# count may make Unmarshal allocate. The server's refusals of hostile member
# requests ride along, the same concern one layer up: a member write whose
# payload does not match its spans, spans that are empty, negative,
# overflowing, cross a parity or overflow unit or name a foreign stripe, a
# read of an overflow store or past the frame bound, an overflow span of a
# unit whose copy the server does not hold — each refused before any
# byte moves, a span of 2^62 bytes as fast as any (its bytes here are
# counted, not walked), a write of several parts refused whole when any part
# is bad — and a failed store write never acknowledged.
fuzz-seeds:
	$(GO) test -run 'Fuzz|TestWireGolden|TestUnmarshalLengthPrefixAmplification' ./internal/wire ./internal/extent ./internal/rpc
	$(GO) test -run 'TestWritePayloadLengthValidated|TestMemberSpansRefused|TestMultiPartWriteAllOrNothing|TestHugeSpanRefused|TestParityOwnershipEnforced|TestFailedStoreWriteRefused' ./internal/server

# The deterministic fault-schedule suite: injected server hangs, ghost
# parity locks, partitions and flapping servers; and the rpc client's
# deadline rules — a deadline mid-write returns only once the writer has
# left the frame, a call queued behind a stuck writer is held to its own
# deadline (TestSendDeadlineMidWrite), a hung modeled link or a wedged
# handler times out with the connection intact (TestCallTimeout*), a
# deadline mid-landing returns only once the read loop has left the buffer
# (TestLandingDeadlineMidFill), and a write timed out on a hung link is
# never applied (TestAbandonedSendOwnsItsPayload); and the server's reused
# handler goroutines — sequential calls on one connection run on at most two
# (TestServeConnReusesHandlers), and a connection's teardown returns only
# once a parked handler has (TestServeConnWaitsForWorkers) — all run twice
# under the race detector to prove them timing-independent.
faults:
	$(GO) test -race -count=2 -run 'TestFaultSchedule|TestAutoFailover' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestSendDeadline|TestCallTimeout|TestLandingDeadline|TestAbandonedSend|TestServeConnReusesHandlers|TestServeConnWaitsForWorkers' ./internal/rpc

# The crash-consistency suite for the RAID5 write hole and the iod
# journals: the journal's replay rule (torn tail at every offset, every byte
# flipped, pre-format files refused, unsynced appends), its sealed pair
# (compactions both ways cut at every byte, an emptying compaction cut
# between its truncates, seal-form records refused, the calls each
# operation makes) and the pair's one compaction rule (TestPairDue), client
# death mid-RMW, parity-server
# crash-restart with intent-journal replay, session heartbeats under a
# stalled write and ahead of the session's first locked read, the pending
# intent's cut points (data write lost after the
# parity write, client death before its watermark, a second client locking
# behind a pending intent, an RS parity server restarted before the
# watermark, a degraded RMW behind another client's half-landed update,
# behind an idle client's completed one and behind its own client's dirty
# release), an unlocking parity write whose store write failed released
# dirty under a live session, lost heartbeats and a lost
# piggybacked watermark under a live session, a lost release holding the
# watermark back until a tick resends it, watermarks under concurrent
# writers and Syncs, the server's watermark and pending-intent rules, a
# session expiring on its one timer, both iod journals under crashes (a crash
# at every point of an intent compaction; at every byte of the clear and
# drop records of a clear of two groups and the overflow stores, checked
# entry by entry, a clear of All, a RemoveFile and a drain, and of the
# dirty compactions the pair's rule calls for), a dirty clear of one group writing one record and at most one
# sync beside 1, 8 or 64 other logs (TestDirtyJournalClearCostIndependentOfLogs),
# a dirty journal record of an unknown kind (the old unit, mirror and stripe
# records included) poisoning its log's epochs, a dirty clear that retires
# nothing making no journal write or sync, a RemoveFile after a restart
# retiring the reloaded intents and stores,
# lease/intent metrics, and the real-TCP iod bounce — run twice under the
# race detector to prove the schedules are deterministic.
crash:
	$(GO) test -race ./internal/journal
	$(GO) test -race -count=2 -run 'TestCrash|TestLease|TestRetire' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestRetire|TestSession|TestPendingIntent|TestIntentJournal|TestDirtyJournal|TestRemoveFileAfterRestart' ./internal/server
	$(GO) test -race -count=2 -run 'TestMetricsLeaseAndIntent|TestRestartedIODReadmission' .

# The online-resync suite: dirty-region tracking by degraded writes, delta
# replay with a concurrent foreground writer, the background-pass mechanism
# (cursor rules under both policies, the terminal advance as a barrier, the
# degraded dual-write nesting), the replay order of the merged replicas'
# groups and each group's cursor end, the full-rebuild fallbacks (an
# epoch mismatch, a replica journal record it cannot read), abort/rerun
# convergence, MarkDirty refusing a layout raid.Resolve refuses or a group
# the dead server holds no member of, and
# dirty-log durability across a replica crash and across a torn journal tail
# (a crash inside a dirty-journal compaction is `make crash`'s) — run twice
# under the race detector because the delta scenario is genuinely
# concurrent.
resync:
	$(GO) test -race -count=2 -run 'TestResync|TestDirtyLog|TestRebuildAbort|TestPass' ./internal/cluster ./internal/recovery
	$(GO) test -race -count=2 -run 'TestDirtyLog' ./internal/server
	$(GO) test -race -count=2 -run 'TestMetricsResyncCounters' .

# The parity-engine and survivor-planner suite: the GF(256) field and
# RS(k,m) matrix unit and property tests; the RS(4,2) double-fault cluster
# scenarios — degraded reads with any two servers dead, double rebuild for
# every pair of failed servers, delta resync (also of one server while a
# second is down) and multi-parity crash-restart intent replay; the proofs
# that RAID5 is the engine's m = 1 case — the seeded Raid5 ≡ RS(k,1)
# differential (stores, read-backs and request counts), the golden
# per-operation request table, the cluster's NoLock/NPC engine ablations and
# the scrubber's leased lock; the mirror as the planner's RS(1,1) case — its
# golden row, degraded reads, degraded writes and rebuild after replacement
# beside every other redundant scheme's; the scrubber's one walk over code
# groups — its checksum algebra and journal, detection and repair for every
# scheme (RS(4, 2)'s GF-row parity unit included), the mirror group's
# double read against a foreground write, and scrubbing beside writers; the seeded degraded-read
# differential (RAID5, Hybrid, RS(4,2) and RAID1 against a reference file
# for every dead set the code tolerates, mid-read failover included); the
# ranged read-modify-write differential (RAID5, RS(4,2) and the two
# ablations, healthy and with each single server dead, every write moving
# exactly its parity region); the read-landing differential (every scheme,
# its responses landed off the RPC connection, healthy, with a server down
# and under straddling RMWs, against a reference file, plus the errors of a
# server whose Read answers are short, long or refused); the layout's code groups against its geometry;
# the one write rule over them — the planner's encode, rmw and overflow
# portions covering every write, the parity delta's ranges and arithmetic
# against a whole re-encode, and the exact damaged groups degraded writes
# record on the dirty-log replicas for every redundant shape; and the layout
# resolver — every scheme name's shape, the retired and unknown scheme
# values refused, and manager, server and client accepting exactly the
# same layouts — under the race detector. Last, the non-x86
# 64-bit cross-build: the gf256 kernel has an amd64 assembly body, and this
# proves the portable file set vets and the whole tree builds without it.
rs:
	$(GO) test -race -count=2 ./internal/gf256
	$(GO) test -race -count=2 -run 'TestRS|TestResyncRS|TestParityEngine|TestDegradedReadDifferential|TestRMWParityRanges|TestResolve|TestRebuildAfterReplace|TestDegradedWrites|TestDegradedReadsAllRedundantSchemes|TestScrub|TestDirtyDamage|TestReadLandingDifferential' ./internal/cluster
	$(GO) test -race -count=2 ./internal/scrub
	$(GO) test -race -count=2 -run 'TestMultiParityPlacement|TestResolve|TestCodeGroups|TestUnitRanges|TestApplyParityDelta' ./internal/raid
	$(GO) test -race -count=2 -run 'TestPlanWrite|TestPlanCovers|TestHybridNeverRMWs' ./internal/client
	GOARCH=arm64 $(GO) vet ./internal/gf256 && GOARCH=arm64 $(GO) build ./...

# The observability suite: the lock-free histogram's concurrency property
# test and the counter-set helper under the race detector, the /metrics +
# /statusz endpoint tests, the server's intent/lease counters on /metrics,
# and the live-cluster stats (every client Metrics counter in Client.Stats)
# and fd-leak regressions over real TCP.
obs:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'TestIntentCountersInRegistry' ./internal/server
	$(GO) test -race -run 'TestDialCloseNoFDLeak|TestStatsOverLiveCluster' .
	$(GO) test -race ./cmd/csar

# The hot-path suite, both directions: allocation-budget regressions
# (pooled frame marshal, decode without a payload copy, full-stripe WriteAt,
# the 16 KiB read-modify-write — each for RAID5 and RS(4,2), the two shapes
# of the one parity engine, and the full-group WriteAt for RAID1 too — the
# 16 KiB Hybrid overflow write, one request per server touched, and 1 MiB
# ReadAt through the whole stack, healthy
# and degraded with an RS(4,2) server down), the
# borrow/release rules of the payload pool (poison-on-put property test,
# late responses, a write timed out on a hung link never applied,
# Data-is-a-view, size classes), the landing rules of a
# Read's response (its bytes land in Into; a deadline or Close mid-landing
# returns only once the read loop has left the buffer, and over loopback
# TCP the next call on that pool slot redials), the pending-map drain
# regression, the stripe-pipelining overlap/serialization tests and the
# store's sync-cost test, and the GF(256) coding kernels (MulAddSlice,
# EncodeInto, a warm ReconstructInto) allocating nothing — all under the
# race detector so the zero-copy paths are proven safe and lean at once. The race detector makes sync.Pool drop
# puts at random, so the bytes-per-byte budgets are checked by one more run
# without it.
allocs:
	$(GO) test -race -run 'TestMarshalFrameAllocs|TestUnmarshalAllocs|TestMarshalFrameMatchesMarshal|TestUnmarshalAliasesData|TestReadRespRelease|TestBufPoolClasses|TestPoolPoisonCorrectness|TestLateReadRespIsRecycled|TestAbandonedSendOwnsItsPayload|TestTimedOutCallsDrainPendingMap|TestReadLandsInInto|TestLandingDeadlineMidFill' ./internal/wire ./internal/rpc
	$(GO) test -race -run 'TestRedialAfterLandingDeadline' .
	$(GO) test -race -run 'TestFullStripeWriteAllocs|TestRMWWriteAllocs|TestOverflowWriteAllocs|TestReadAtAllocs|TestDegradedReadAtAllocs|TestPipelinedStripeWritesOverlap|TestSameStripeWritesSerializeThroughParityLock' ./internal/cluster
	$(GO) test -race -run 'TestSyncCostIndependentOfCacheSize|TestDifferentialAgainstScanReference' ./internal/simdisk
	$(GO) test -race -run 'TestCodingKernelAllocs' ./internal/gf256
	$(GO) test -run 'TestFullStripeWriteAllocs|TestRMWWriteAllocs|TestOverflowWriteAllocs|TestReadAtAllocs|TestDegradedReadAtAllocs' ./internal/cluster

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

# The metadata high-availability suite: the journal's replay rule, WAL
# torn-tail recovery at every byte offset, pre-format WAL refusal,
# crash-mid-compaction replay, a manager compaction cut at every byte of its
# sealed write both ways (TestManagerCompactionCrash), a standby's snapshot
# install over a divergent history cut at every byte
# (TestReplicatedSnapshotInstallCrash), primary→standby replication
# with epoch fencing, deterministic promotion, and the kill-the-primary-
# mid-create-stream failover acceptance test — run twice under the race
# detector because replication ships concurrently with client retries.
meta-ha:
	$(GO) test -race ./internal/journal
	$(GO) test -race -count=2 -run 'TestWAL|TestReplication|TestStandby|TestPromotion|TestDeposed|TestLagging|TestTryPromote|TestReplicated|TestStatsRPC|TestManagerCompaction' ./internal/meta
	$(GO) test -race -count=2 -run 'TestManagerFailoverMidCreateStream|TestManagerGroupInMemory' ./internal/cluster
	$(GO) test -race -count=2 -run 'TestManagerFailoverOverTCP' .

# The online scheme-migration suite: the manager's pin/commit/abort fences
# with WAL, compaction and standby-replication durability, the background-pass
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

# The non-test Go line count (the nested benchmark/ module excluded), so
# every change that claims to have made the tree smaller reports the same number.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

ci: vet staticcheck build race port32 fuzz-seeds faults crash resync rs obs allocs bench-smoke benchmark-smoke meta-ha migrate
