package cluster

import (
	"bytes"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/wire"
)

// Tests for the one background-pass mechanism (internal/client/pass.go):
// the cursor's rules under both policies, the barrier the terminal advance
// forms, and the nesting a gate-exempt handle must survive.

// passFixture is one kind of pass, set up and held by hand so the cursor sits
// where the test puts it.
type passFixture struct {
	c    *Cluster
	cl   *client.Client
	f    *client.File
	dst  *client.File // the shadow layout of a re-layout fixture, else nil
	pass *client.Pass
	// applied counts the foreground writes the pass's policy took: forwarded
	// to the recovering server, or dual-written into the shadow layout.
	applied func() int64
	// rerun is the recovery entry point that would start a second pass on
	// the same key; aborted is the error it must surface.
	rerun   func() error
	aborted error
	begin   func() (*client.Pass, error)
}

// resyncFixture: a RAID5 file whose server 2 went away, missed a write at
// offset 0 and came back; a resync pass for it is registered, cursor at 0.
func resyncFixture(t *testing.T) *passFixture {
	c := newCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("f", 5, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, pattern(64<<10, 1), 0)
	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	mustWrite(t, f, pattern(256, 2), 0) // dirties the log
	c.RestartServer(dead)
	fx := &passFixture{
		c: c, cl: cl, f: f,
		applied: func() int64 { return cl.Metrics().ResyncForwards },
		rerun: func() error {
			_, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
			return err
		},
		aborted: recovery.ErrResyncAborted,
		begin:   func() (*client.Pass, error) { return cl.BeginPass(f.Ref().ID, dead, nil) },
	}
	if fx.pass, err = fx.begin(); err != nil {
		t.Fatal(err)
	}
	return fx
}

// relayoutFixture: a Hybrid file with an RS(4,2) shadow layout pinned and a
// re-layout pass into it registered, cursor at 0.
func relayoutFixture(t *testing.T) *passFixture {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("b", 6, 1024, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, pattern(64<<10, 5), 0)
	id := f.Ref().ID
	sr, err := cl.PinScheme(id, wire.ReedSolomon, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := cl.FileForRelayout(sr.New, 0)
	if err != nil {
		t.Fatal(err)
	}
	fx := &passFixture{
		c: c, cl: cl, f: f, dst: dst,
		applied: func() int64 { return cl.Metrics().RelayoutDualWrite },
		rerun: func() error {
			_, err := recovery.Migrate(cl, f, wire.ReedSolomon, 2, recovery.MigrateOptions{})
			return err
		},
		aborted: recovery.ErrMigrationAborted,
		begin:   func() (*client.Pass, error) { return cl.BeginPass(id, -1, dst) },
	}
	if fx.pass, err = fx.begin(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fx.pass.End()
		cl.AbortScheme(id, sr.New.ID) //nolint:errcheck // best-effort unpin
	})
	return fx
}

// TestPassCursor pins the cursor's rules down without any timing, once per
// policy: with the cursor held at 16 KiB a foreground write behind it takes
// the pass's policy (forwarded / dual-written) and one ahead of it does not;
// the cursor never moves backwards; a second pass on the live key is refused
// — by BeginPass and by the recovery entry point — and leaves the first one
// working; End reverts the policy and frees the key.
func TestPassCursor(t *testing.T) {
	const cursor = 16 << 10
	for _, tc := range []struct {
		name string
		make func(t *testing.T) *passFixture
	}{
		{"resync", resyncFixture},
		{"relayout", relayoutFixture},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := tc.make(t)
			pass, dst := fx.pass, fx.dst
			pass.Exclusive(func() { pass.Advance(cursor) })

			// Behind the cursor. 4 KiB at 4 KiB is whole stripes of every
			// layout involved, so a shadow layout holds exactly those bytes.
			behind := pattern(4096, 9)
			mustWrite(t, fx.f, behind, 4096)
			if n := fx.applied(); n != 1 {
				t.Fatalf("write behind the cursor: policy applied %d times, want 1", n)
			}
			if dst != nil {
				got := make([]byte, len(behind))
				if _, err := dst.ReadAt(got, 4096); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, behind) {
					t.Fatal("write behind the cursor not mirrored into the shadow layout")
				}
			}

			// Wholly ahead of the cursor: plain behaviour.
			mustWrite(t, fx.f, pattern(4096, 11), 2*cursor)
			if n := fx.applied(); n != 1 {
				t.Fatalf("write ahead of the cursor took the pass's policy (%d)", n)
			}
			if dst != nil && dst.Size() > cursor {
				t.Fatalf("shadow size %d grew past the cursor", dst.Size())
			}

			// Monotonic: a lower advance is a no-op.
			pass.Exclusive(func() { pass.Advance(cursor / 2) })
			if cur := pass.Cursor(); cur != cursor {
				t.Fatalf("cursor moved backwards: %d", cur)
			}

			// A second pass on the live key is refused and orphans nothing:
			// the first pass's cursor still moves and still decides.
			if _, err := fx.begin(); !errors.Is(err, client.ErrPassActive) {
				t.Fatalf("second BeginPass on a live key: %v", err)
			}
			if err := fx.rerun(); !errors.Is(err, fx.aborted) {
				t.Fatalf("second pass through recovery: %v, want %v", err, fx.aborted)
			}
			pass.Exclusive(func() { pass.Advance(4 * cursor) })
			mustWrite(t, fx.f, pattern(4096, 13), 2*cursor)
			if n := fx.applied(); n != 2 {
				t.Fatalf("after a refused second pass the first stopped deciding (applied = %d)", n)
			}
			if dst != nil && dst.Size() != 2*cursor+4096 {
				t.Fatalf("shadow size %d: the write went to another target", dst.Size())
			}

			// End reverts the policy and frees the key.
			pass.End()
			mustWrite(t, fx.f, pattern(4096, 15), 4096)
			if n := fx.applied(); n != 2 {
				t.Fatalf("write after End still took the pass's policy (%d)", n)
			}
			again, err := fx.begin()
			if err != nil {
				t.Fatalf("BeginPass after End: %v", err)
			}
			again.End()
		})
	}
}

// TestPassTerminalAdvanceIsBarrier: a degraded write samples a low resync
// cursor, logs its damage and is parked mid-execute. The terminal
// Exclusive(Advance(MaxInt64)) must not return before that write has: when it
// does, the write's MarkDirty is on both replicas, and every later write
// forwards. This is what lets Resync dump the log right after the advance
// without draining anything.
func TestPassTerminalAdvanceIsBarrier(t *testing.T) {
	fx := resyncFixture(t)
	defer fx.pass.End()
	f, pass := fx.f, fx.pass
	g, ref := f.Geometry(), f.Ref()
	const dead = 2
	replicaItems := func() []int {
		var n []int
		for _, r := range client.DirtyReplicas(g.Servers, dead) {
			resp, err := fx.cl.ServerCaller(r).Call(&wire.DirtyDump{File: ref, Dead: dead})
			if err != nil {
				t.Fatal(err)
			}
			d := resp.(*wire.DirtyDumpResp)
			n = append(n, len(d.Units)+len(d.Mirrors)+len(d.Stripes))
		}
		return n
	}
	before := replicaItems()

	// One whole stripe, far from the damage at offset 0; park its data write
	// on a live server of that stripe.
	off := 64 * g.StripeSize()
	hung := g.ServerOf(g.UnitOf(off))
	if hung == dead {
		hung = g.ServerOf(g.UnitOf(off) + 1)
	}
	flt := fx.c.Inject(FaultPoint{Server: hung, Kind: wire.KWriteData, Action: FaultHang})
	defer flt.Release()
	var writeReturned atomic.Bool
	writeDone := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(pattern(int(g.StripeSize()), 21), off)
		writeReturned.Store(true)
		writeDone <- err
	}()
	<-flt.Triggered()

	advanced := make(chan bool, 1)
	go func() {
		pass.Exclusive(func() {
			advanced <- writeReturned.Load()
			pass.Advance(math.MaxInt64)
		})
	}()
	// A broken barrier lets the exclusive section in while the write is
	// parked; give it the time to get there before releasing the write.
	select {
	case <-advanced:
		t.Fatal("terminal advance ran while a degraded write that sampled the old cursor was mid-execute")
	case <-time.After(50 * time.Millisecond):
	}
	flt.Release()
	if !<-advanced {
		t.Fatal("exclusive section entered before the parked write returned")
	}
	// The hang injector fails the request it parked, so the write itself is
	// refused — after its damage went on record, which is the point.
	if err := <-writeDone; err == nil {
		t.Fatal("parked write succeeded; the hang injector did not fire on it")
	}
	for i, n := range replicaItems() {
		if n <= before[i] {
			t.Fatalf("replica %d holds %d dirty items, %d before the parked write: its MarkDirty is missing", i, n, before[i])
		}
	}

	// Behind the terminal cursor every write forwards, this stripe included.
	want := pattern(int(g.StripeSize()), 22)
	mustWrite(t, f, want, off)
	if n := fx.applied(); n != 1 {
		t.Fatalf("ResyncForwards = %d after the terminal advance, want 1", n)
	}
	pass.End()
	if _, err := recovery.Resync(fx.cl, f, dead, recovery.ResyncOptions{}); err != nil {
		t.Fatal(err)
	}
	fx.cl.MarkUp(dead)
	if problems, err := recovery.Verify(fx.cl, f); err != nil || len(problems) != 0 {
		t.Fatalf("verify after resync: %v %v", problems, err)
	}
	checkRead(t, f, want, off)
}

// TestPassDegradedDualWriteDoesNotReenterGate: with a server down and a
// migration's cursor past the write, the foreground write is degraded on the
// live layout and again, through the gate-exempt shadow handle, on the shadow
// layout — all under the one shared hold its own handle took. Queue an
// Exclusive section behind that hold mid-write: a shadow handle that took the
// gate a second time would now wait behind the queued section, which waits
// for the write — a deadlock. The write must complete.
func TestPassDegradedDualWriteDoesNotReenterGate(t *testing.T) {
	fx := relayoutFixture(t)
	fx.pass.Exclusive(func() { fx.pass.Advance(16 << 10) })
	const dead = 2
	fx.c.StopServer(dead)
	fx.cl.MarkDown(dead)

	// Park the write where it already holds the gate and has sampled both
	// cursors: on its first dirty-log record. The parked MarkDirty fails on
	// release, which costs the write nothing — the other replica has it.
	first := client.DirtyReplicas(6, dead)[0]
	flt := fx.c.Inject(FaultPoint{Server: first, Kind: wire.KMarkDirty, Action: FaultHang})
	defer flt.Release()
	data := pattern(4096, 31)
	writeDone := make(chan error, 1)
	go func() {
		_, err := fx.f.WriteAt(data, 4096)
		writeDone <- err
	}()
	<-flt.Triggered()
	queued := make(chan struct{})
	go func() {
		fx.pass.Exclusive(func() {})
		close(queued)
	}()
	// Nothing reports a goroutine blocked in Lock; give it the time to queue.
	time.Sleep(50 * time.Millisecond)
	flt.Release()

	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("degraded dual-write deadlocked against a queued exclusive section")
	}
	<-queued
	m := fx.cl.Metrics()
	if m.RelayoutDualWrite != 1 || m.DegradedWrites != 2 {
		t.Fatalf("dual-writes = %d, degraded writes = %d; want 1 and 2 (live + shadow)", m.RelayoutDualWrite, m.DegradedWrites)
	}
	for _, h := range []*client.File{fx.f, fx.dst} {
		checkRead(t, h, data, 4096)
	}
}
