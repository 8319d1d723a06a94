package cluster

import (
	"errors"
	"math"
	"sync"
	"testing"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/wire"
)

// This file tests online incremental resync end to end: dirty-region
// tracking by degraded writes, delta replay onto a returned server with a
// concurrent foreground writer, cursor-based write forwarding, the
// epoch-mismatch full-rebuild fallback, abort-and-rerun convergence, and
// dirty-log durability across a replica crash.

// dumpDirtyItems counts the dirty-log items the replicas hold for (f, dead),
// asking the servers directly.
func dumpDirtyItems(t *testing.T, c *Cluster, ref wire.FileRef, dead int) int {
	t.Helper()
	n := 0
	for _, r := range client.DirtyReplicas(c.Servers(), dead) {
		resp, err := c.Server(r).Handle(&wire.DirtyDump{File: ref, Dead: uint16(dead)})
		if err != nil {
			t.Fatal(err)
		}
		d := resp.(*wire.DirtyDumpResp)
		n += len(d.Units) + len(d.Mirrors) + len(d.Stripes)
		if d.Overflow {
			n++
		}
	}
	return n
}

// TestResyncDeltaOnline is the acceptance scenario: a 64 KiB file suffers a
// server outage, a handful of degraded writes damage a few stripes, the
// server returns with its stores intact, and Resync replays only the damaged
// delta while a foreground writer keeps writing. The file must verify clean
// after re-admission and the replayed item count must be far below what a
// full rebuild reconstructs.
func TestResyncDeltaOnline(t *testing.T) {
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, 5)
			cl := c.NewClient()
			f, err := cl.Create("f", 5, 64, scheme)
			if err != nil {
				t.Fatal(err)
			}
			const size = 64 << 10
			ref := make([]byte, size)
			copy(ref, pattern(size, 1))
			mustWrite(t, f, ref, 0)

			const dead = 2
			c.StopServer(dead)
			cl.MarkDown(dead)

			// Degraded writes damage a few scattered regions: an unaligned
			// small write (overflow under Hybrid), an aligned full stripe,
			// and a multi-stripe span.
			for _, w := range []struct {
				off int64
				n   int
			}{{1000, 100}, {2048, 256}, {3000, 500}} {
				data := pattern(w.n, byte(w.off))
				mustWrite(t, f, data, w.off)
				copy(ref[w.off:], data)
			}
			if m := cl.Metrics(); m.DirtyUnits == 0 {
				t.Fatal("degraded writes logged no dirty units")
			}

			// The server comes back with its (stale) pre-outage stores.
			c.RestartServer(dead)

			// Foreground traffic continues during the resync: a writer
			// repeats one fixed full-stripe write (so the final content is
			// deterministic) and a reader checks an untouched region.
			wdata := pattern(256, 99)
			copy(ref[8192:], wdata)
			mustWrite(t, f, wdata, 8192) // at least one write is guaranteed
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mustWrite(t, f, wdata, 8192)
				}
			}()
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// The outage window must never serve stale data: reads
					// stay degraded until MarkUp.
					checkRead(t, f, ref[:256], 0)
				}
			}()

			var totalItems int64
			rep, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
			if err != nil {
				t.Fatalf("resync: %v", err)
			}
			if rep.FullRebuild {
				t.Fatal("delta resync fell back to full rebuild")
			}
			totalItems += rep.Items()
			close(stop)
			wg.Wait()

			// Writes that landed after the pass drained may have re-dirtied
			// the log (the recovery loop's next tick would catch them); run
			// follow-up passes until it is empty.
			for i := 0; len(recovery.DirtyServers(cl, f)) > 0; i++ {
				if i == 10 {
					t.Fatal("dirty log did not drain")
				}
				rep, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
				if err != nil {
					t.Fatalf("follow-up resync: %v", err)
				}
				totalItems += rep.Items()
			}

			// Reads must be correct before re-admission too (degraded path).
			checkRead(t, f, ref, 0)
			cl.MarkUp(dead)

			problems, err := recovery.Verify(cl, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 0 {
				t.Fatalf("verify after resync: %v", problems)
			}
			checkRead(t, f, ref, 0)

			// The delta must be much smaller than a full rebuild of the
			// server, which reconstructs every unit and parity stripe it
			// owns.
			g := f.Geometry()
			var full int64
			g.UnitsOwnedBy(dead, f.Size(), func(int64) error { full++; return nil }) //nolint:errcheck
			if scheme.UsesParity() {
				g.ParityStripesOwnedBy(dead, f.Size(), func(int64) error { full++; return nil }) //nolint:errcheck
			}
			if totalItems == 0 || totalItems >= full/2 {
				t.Fatalf("resync replayed %d items; full rebuild would do %d — not a delta", totalItems, full)
			}
			m := cl.Metrics()
			if m.ResyncedUnits == 0 {
				t.Fatal("ResyncedUnits not recorded")
			}
			if m.FullRebuildFallbacks != 0 {
				t.Fatalf("unexpected full-rebuild fallback: %+v", m)
			}
		})
	}
}

// TestResyncForwardsBehindCursor pins the cursor protocol deterministically:
// with the sync-point past the whole file, a degraded-mode write is forwarded
// straight to the recovering server instead of re-dirtying the log.
func TestResyncForwardsBehindCursor(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	base := pattern(4096, 1)
	mustWrite(t, f, base, 0)

	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	mustWrite(t, f, pattern(256, 2), 0) // dirties the log
	c.RestartServer(dead)

	ref := f.Ref()
	before := dumpDirtyItems(t, c, ref, dead)
	if before == 0 {
		t.Fatal("degraded write left no dirty log")
	}

	pass, err := cl.BeginPass(ref.ID, dead, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass.Exclusive(func() { pass.Advance(math.MaxInt64) })
	mustWrite(t, f, pattern(256, 3), 1024) // behind the cursor: forwarded
	pass.End()

	m := cl.Metrics()
	if m.ResyncForwards != 1 {
		t.Fatalf("ResyncForwards = %d, want 1", m.ResyncForwards)
	}
	if m.DegradedWrites != 1 { // only the pre-resync write
		t.Fatalf("DegradedWrites = %d, want 1", m.DegradedWrites)
	}
	if after := dumpDirtyItems(t, c, ref, dead); after != before {
		t.Fatalf("forwarded write changed the dirty log: %d -> %d items", before, after)
	}

	// The real resync then replays only the first write's damage; the
	// forwarded region is already fresh on the recovering server, which
	// Verify would catch out if it were not.
	rep, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items() == 0 || rep.FullRebuild {
		t.Fatalf("unexpected resync report: %+v", rep)
	}
	cl.MarkUp(dead)
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify: %v", problems)
	}
	want := append([]byte{}, base...)
	copy(want, pattern(256, 2))
	copy(want[1024:], pattern(256, 3))
	checkRead(t, f, want, 0)
}

// TestResyncEpochMismatchFullRebuild loses one replica's dirty log entirely;
// the epoch sets disagree, so the log cannot prove it recorded every
// degraded write and Resync must fall back to a full rebuild.
func TestResyncEpochMismatchFullRebuild(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(8192, 1)
	mustWrite(t, f, want, 0)

	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	mustWrite(t, f, pattern(256, 2), 0)
	copy(want, pattern(256, 2))
	c.RestartServer(dead)

	ref := f.Ref()
	r := client.DirtyReplicas(c.Servers(), dead)[0]
	if _, err := c.Server(r).Handle(&wire.ClearDirty{File: ref, Dead: uint16(dead), All: true}); err != nil {
		t.Fatal(err)
	}

	rep, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullRebuild {
		t.Fatal("mismatched epochs did not force a full rebuild")
	}
	if m := cl.Metrics(); m.FullRebuildFallbacks != 1 {
		t.Fatalf("FullRebuildFallbacks = %d, want 1", m.FullRebuildFallbacks)
	}
	if n := dumpDirtyItems(t, c, ref, dead); n != 0 {
		t.Fatalf("fallback left %d dirty items", n)
	}
	cl.MarkUp(dead)
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify after fallback: %v", problems)
	}
	checkRead(t, f, want, 0)
}

// TestResyncAbortLeavesLogIntact kills the recovering server mid-replay:
// Resync must return ErrResyncAborted, leave the dirty log untouched, and a
// rerun after the fault clears must converge.
func TestResyncAbortLeavesLogIntact(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(8192, 1)
	mustWrite(t, f, want, 0)

	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	for _, off := range []int64{0, 1024, 4096} {
		mustWrite(t, f, pattern(256, byte(off)), off)
		copy(want[off:], pattern(256, byte(off)))
	}
	c.RestartServer(dead)

	ref := f.Ref()
	before := dumpDirtyItems(t, c, ref, dead)

	// The replacement dies again on the first replay write it receives.
	fault := c.Inject(FaultPoint{Server: dead, Action: FaultDrop})
	_, err = recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
	if !errors.Is(err, recovery.ErrResyncAborted) {
		t.Fatalf("resync under fault: %v, want ErrResyncAborted", err)
	}
	if after := dumpDirtyItems(t, c, ref, dead); after != before {
		t.Fatalf("aborted resync changed the dirty log: %d -> %d items", before, after)
	}
	fault.Release()

	rep, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
	if err != nil {
		t.Fatalf("rerun after fault: %v", err)
	}
	if rep.Items() == 0 || rep.FullRebuild {
		t.Fatalf("unexpected rerun report: %+v", rep)
	}
	cl.MarkUp(dead)
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify after rerun: %v", problems)
	}
	checkRead(t, f, want, 0)
}

// TestRebuildAbortAndRerun is the same recovery-of-recovery property for the
// full Rebuild path: the blank replacement dies mid-rebuild, Rebuild errors,
// and a rerun after it returns converges.
func TestRebuildAbortAndRerun(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(16<<10, 1)
	mustWrite(t, f, want, 0)

	const dead = 1
	c.StopServer(dead)
	c.ReplaceServer(dead)
	fault := c.Inject(FaultPoint{Server: dead, Kind: wire.KWriteData, After: 1, Action: FaultDrop})
	if err := recovery.Rebuild(cl, f, dead); err == nil {
		t.Fatal("rebuild succeeded with the replacement dropping writes")
	}
	fault.Release()
	if err := recovery.Rebuild(cl, f, dead); err != nil {
		t.Fatalf("rebuild rerun: %v", err)
	}
	cl.MarkUp(dead)
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify after rebuild rerun: %v", problems)
	}
	checkRead(t, f, want, 0)
}

// TestDirtyLogSurvivesReplicaCrash crashes a dirty-log replica (RAM lost,
// disk kept): the journal reload must bring the log back, and the resync
// that follows must still converge.
func TestDirtyLogSurvivesReplicaCrash(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(8192, 1)
	mustWrite(t, f, want, 0)

	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	mustWrite(t, f, pattern(300, 2), 512)
	copy(want[512:], pattern(300, 2))

	ref := f.Ref()
	before := dumpDirtyItems(t, c, ref, dead)
	if before == 0 {
		t.Fatal("no dirty log to crash")
	}
	r := client.DirtyReplicas(c.Servers(), dead)[0]
	c.CrashServer(r)
	c.RestartServer(r)
	if after := dumpDirtyItems(t, c, ref, dead); after != before {
		t.Fatalf("dirty log lost in crash: %d -> %d items", before, after)
	}

	c.RestartServer(dead)
	if deads := recovery.DirtyServers(cl, f); len(deads) != 1 || deads[0] != dead {
		t.Fatalf("DirtyServers = %v, want [%d]", deads, dead)
	}
	if _, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.MarkUp(dead)
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify: %v", problems)
	}
	checkRead(t, f, want, 0)
}

// TestResyncDryRunAndNoop: a dry run reports the delta without writing or
// clearing anything, and a resync with no logged damage is a no-op.
func TestResyncDryRunAndNoop(t *testing.T) {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, pattern(4096, 1), 0)

	// No damage: nothing to do.
	rep, err := recovery.Resync(cl, f, 2, recovery.ResyncOptions{})
	if err != nil || rep.Items() != 0 || rep.Rounds != 0 {
		t.Fatalf("no-op resync: %+v, %v", rep, err)
	}

	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	mustWrite(t, f, pattern(256, 2), 0)
	c.RestartServer(dead)

	ref := f.Ref()
	before := dumpDirtyItems(t, c, ref, dead)
	dry, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.Items() == 0 || dry.FullRebuild {
		t.Fatalf("dry run found nothing: %+v", dry)
	}
	if after := dumpDirtyItems(t, c, ref, dead); after != before {
		t.Fatalf("dry run changed the dirty log: %d -> %d items", before, after)
	}

	real, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if real.Items() != dry.Items() {
		t.Fatalf("dry run predicted %d items, real pass replayed %d", dry.Items(), real.Items())
	}
	cl.MarkUp(dead)
	if problems, err := recovery.Verify(cl, f); err != nil || len(problems) != 0 {
		t.Fatalf("verify: %v %v", problems, err)
	}
}
