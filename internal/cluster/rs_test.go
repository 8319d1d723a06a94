package cluster

import (
	"errors"
	"testing"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/scrub"
	"csar/internal/wire"
)

// This file is the fault suite for the Reed-Solomon scheme: RS(4, 2) on six
// servers must survive two simultaneous server failures — degraded reads
// return correct bytes with any two servers gone, Rebuild restores both from
// the four survivors, scrub and Verify then report a clean file — and the
// multi-parity write path must keep the crash-restart intent-replay and
// online-resync guarantees of the single-parity schemes.

// rsVerifyClean asserts Verify and a scrub pass find nothing wrong.
func rsVerifyClean(t *testing.T, cl *client.Client, f *client.File) {
	t.Helper()
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify: %v", problems[:min(3, len(problems))])
	}
	srep, err := scrub.Run(cl, f, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !srep.Clean() {
		t.Fatalf("scrub: %v (problems %v)", srep, srep.Problems)
	}
}

// TestRSRoundTripAndVerify: the model check for RS(4, 2) — a mix of
// aligned, unaligned, overlapping and sparse writes must read back exactly,
// and both parity units of every stripe must verify byte-correct.
func TestRSRoundTripAndVerify(t *testing.T) {
	cl := newCluster(t, 6).NewClient()
	f, err := cl.Create("rs", 6, 64, wire.ReedSolomon)
	if err != nil {
		t.Fatal(err)
	}
	if g := f.Geometry(); g.DataWidth() != 4 || g.PU() != 2 {
		t.Fatalf("geometry = RS(%d, %d), want RS(4, 2)", g.DataWidth(), g.PU())
	}
	writes := []struct {
		off int64
		n   int
	}{
		{0, 256},    // exactly one stripe (4 data units * 64)
		{256, 100},  // partial
		{300, 600},  // overlaps previous, spans stripes
		{2000, 50},  // sparse hole before it
		{0, 1},      // tiny overwrite at start
		{255, 2},    // straddles unit boundary
		{1024, 512}, // two aligned stripes
	}
	ref := make([]byte, 4096)
	var maxEnd int64
	for wi, w := range writes {
		data := pattern(w.n, byte(wi+1))
		mustWrite(t, f, data, w.off)
		copy(ref[w.off:], data)
		if e := w.off + int64(w.n); e > maxEnd {
			maxEnd = e
		}
	}
	checkRead(t, f, ref[:maxEnd], 0)
	rsVerifyClean(t, cl, f)
}

// TestRSDoubleFaultDegradedReads: with RS(4, 2), any two servers may fail
// simultaneously and reads must still reconstruct the exact bytes; a third
// failure exceeds the code's distance and must error rather than return
// wrong data. New writes during a double fault are refused (the dirty log
// tracks one outage).
func TestRSDoubleFaultDegradedReads(t *testing.T) {
	for _, dead := range [][2]int{{0, 1}, {1, 4}, {4, 5}} {
		c := newCluster(t, 6)
		cl := c.NewClient()
		f, err := cl.Create("rs", 6, 64, wire.ReedSolomon)
		if err != nil {
			t.Fatal(err)
		}
		const size = 8 << 10 // 32 stripes: parity placement rotates fully
		ref := pattern(size, 1)
		mustWrite(t, f, ref, 0)

		for _, d := range dead {
			c.StopServer(d)
			cl.MarkDown(d)
		}
		checkRead(t, f, ref, 0)
		// Unaligned sub-span: reconstruction must slice units correctly.
		checkRead(t, f, ref[777:2222], 777)

		if _, err := f.WriteAt(pattern(10, 9), 0); !errors.Is(err, client.ErrDegradedWrite) {
			t.Fatalf("dead=%v: double-degraded write: %v, want ErrDegradedWrite", dead, err)
		}

		third := 2
		if dead == [2]int{1, 4} {
			third = 0
		}
		c.StopServer(third)
		cl.MarkDown(third)
		got := make([]byte, 100)
		if _, err := f.ReadAt(got, 0); err == nil {
			t.Fatalf("dead=%v+%d: read with 3 dead servers succeeded", dead, third)
		}
		c.Close()
	}
}

// TestRSDoubleFaultRebuild: both failed servers are replaced with blanks and
// rebuilt — the first while the second is still down (a 4-survivor decode),
// the second from the fully restored set. The file must then read exactly
// and verify clean, including the rebuilt parity units. Every one of the 15
// pairs of the six servers is a different set of survivors for the first
// rebuild's decodes.
func TestRSDoubleFaultRebuild(t *testing.T) {
	const n = 6
	for d1 := 0; d1 < n; d1++ {
		for d2 := d1 + 1; d2 < n; d2++ {
			t.Logf("servers %d and %d fail", d1, d2) // shown with a failure below
			rsDoubleFaultRebuild(t, d1, d2)
		}
	}
}

// rsDoubleFaultRebuild is TestRSDoubleFaultRebuild for one pair of failed
// servers: d1 is rebuilt while d2 is still down, then d2.
func rsDoubleFaultRebuild(t *testing.T, d1, d2 int) {
	t.Helper()
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("rs", 6, 64, wire.ReedSolomon)
	if err != nil {
		t.Fatal(err)
	}
	const size = 8 << 10
	ref := pattern(size, 2)
	mustWrite(t, f, ref, 0)

	c.StopServer(d1)
	c.StopServer(d2)
	cl.MarkDown(d1)
	cl.MarkDown(d2)
	checkRead(t, f, ref, 0)

	c.ReplaceServer(d1)
	if err := recovery.Rebuild(cl, f, d1); err != nil {
		t.Fatalf("rebuild %d with %d still down: %v", d1, d2, err)
	}
	cl.MarkUp(d1)
	checkRead(t, f, ref, 0)

	c.ReplaceServer(d2)
	if err := recovery.Rebuild(cl, f, d2); err != nil {
		t.Fatalf("rebuild %d after %d: %v", d2, d1, err)
	}
	cl.MarkUp(d2)

	checkRead(t, f, ref, 0)
	rsVerifyClean(t, cl, f)

	// The rebuilt servers must carry real redundancy: writes and another
	// double fault, on two of the servers that never failed, still work.
	upd := pattern(300, 3)
	mustWrite(t, f, upd, 500)
	copy(ref[500:], upd)
	var rest []int
	for d := 0; d < 6; d++ {
		if d != d1 && d != d2 {
			rest = append(rest, d)
		}
	}
	for _, d := range []int{rest[0], rest[2]} {
		c.StopServer(d)
		cl.MarkDown(d)
	}
	checkRead(t, f, ref, 0)
}

// TestRSDegradedWriteAndResync: with one server out, writes proceed degraded
// (all reachable parity units updated, damage logged), and the returning
// server is brought back by replaying only the dirty delta — including its
// GF-scaled parity units, not just XOR rows.
func TestRSDegradedWriteAndResync(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("rs", 6, 64, wire.ReedSolomon)
	if err != nil {
		t.Fatal(err)
	}
	const size = 16 << 10
	ref := make([]byte, size)
	copy(ref, pattern(size, 1))
	mustWrite(t, f, ref, 0)

	const dead = 4
	c.StopServer(dead)
	cl.MarkDown(dead)

	// Degraded writes: an unaligned RMW, a full stripe, a multi-stripe
	// span. Each damages data units and parity units the dead server owns.
	for _, w := range []struct {
		off int64
		n   int
	}{{1000, 100}, {2048, 256}, {3000, 900}} {
		data := pattern(w.n, byte(w.off))
		mustWrite(t, f, data, w.off)
		copy(ref[w.off:], data)
	}
	if m := cl.Metrics(); m.DirtyUnits == 0 {
		t.Fatal("degraded RS writes logged no dirty items")
	}
	checkRead(t, f, ref, 0)

	c.RestartServer(dead)
	rep, err := recovery.Resync(cl, f, dead, recovery.ResyncOptions{})
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	if rep.FullRebuild {
		t.Fatalf("resync fell back to full rebuild: %+v", rep)
	}
	if rep.Items() == 0 {
		t.Fatalf("resync replayed nothing: %+v", rep)
	}
	cl.MarkUp(dead)

	checkRead(t, f, ref, 0)
	rsVerifyClean(t, cl, f)
}

// TestResyncRSSecondServerDown: RS(4, 2) tolerates two failures, and so must
// its resync. Server 2 is out while writes proceed degraded; then server 4
// stops and 2 returns. Resync(2) must replay 2's dirty delta around the
// second failure — decoding through the second parity unit where 4 held a
// survivor — not abort; the file must read back exactly, and once 4 returns
// and resyncs too, it must verify clean.
func TestResyncRSSecondServerDown(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("rs", 6, 64, wire.ReedSolomon)
	if err != nil {
		t.Fatal(err)
	}
	const size = 16 << 10
	ref := pattern(size, 1)
	mustWrite(t, f, ref, 0)

	const first, second = 2, 4
	c.StopServer(first)
	cl.MarkDown(first)
	for _, w := range []struct {
		off int64
		n   int
	}{{1000, 100}, {2048, 256}, {3000, 900}} {
		data := pattern(w.n, byte(w.off))
		mustWrite(t, f, data, w.off)
		copy(ref[w.off:], data)
	}

	// The second failure is not reported to the client: resync must find
	// it, as a fresh process would.
	c.StopServer(second)
	c.RestartServer(first)
	rep, err := recovery.Resync(cl, f, first, recovery.ResyncOptions{})
	if err != nil {
		t.Fatalf("resync of %d with %d down: %v", first, second, err)
	}
	if rep.FullRebuild || rep.Items() == 0 {
		t.Fatalf("resync of %d with %d down: %+v, want a delta replay", first, second, rep)
	}
	cl.MarkUp(first)
	cl.MarkDown(second)
	checkRead(t, f, ref, 0)

	// Server 4's own outage takes a degraded write too.
	upd := pattern(500, 9)
	mustWrite(t, f, upd, 5000)
	copy(ref[5000:], upd)
	c.RestartServer(second)
	rep, err = recovery.Resync(cl, f, second, recovery.ResyncOptions{})
	if err != nil {
		t.Fatalf("resync of %d: %v", second, err)
	}
	if rep.FullRebuild || rep.Items() == 0 {
		t.Fatalf("resync of %d: %+v, want a delta replay", second, rep)
	}
	cl.MarkUp(second)
	checkRead(t, f, ref, 0)
	rsVerifyClean(t, cl, f)
}

// TestRSCrashRestartIntentReplay: a multi-parity RMW lands its data and its
// unit-0 parity write, but the second parity server dies before its
// unlocking write (and the client's dirty compensation) arrive. After
// crash-restart the journal resurrects that server's intent as abandoned,
// and replay must recompute its GF-scaled parity unit — not the XOR — from
// the stripe's data units.
func TestRSCrashRestartIntentReplay(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, err := cl.Create("rs", 6, 64, wire.ReedSolomon)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Geometry()
	ref := pattern(int(2*g.StripeSize()), 2)
	mustWrite(t, f, ref, 0)

	p := testPolicy()
	p.LockLease = 10 * time.Second // its heartbeat does not tick within this scenario
	cl.SetPolicy(p)

	// Parity unit 1's server for stripe 0 stops acknowledging parity
	// writes, as if it died mid-request; unit 0's server stays healthy.
	ps1 := g.ParityServerOfUnit(0, 1)
	fwp := c.Inject(FaultPoint{Server: ps1, Kind: wire.KWriteParity, Action: FaultDrop})
	ful := c.Inject(FaultPoint{Server: ps1, Kind: wire.KUnlockParity, Action: FaultDrop})

	upd := pattern(10, 7)
	if _, err := f.WriteAt(upd, 0); err == nil {
		t.Fatal("RMW succeeded despite dropped parity write")
	}

	c.CrashServer(ps1)
	fwp.Release()
	ful.Release()
	c.RestartServer(ps1)
	in := waitIntent(t, cl, ps1, f.Ref(), true)
	if in.Stripe != 0 {
		t.Fatalf("journal-loaded intent = %+v, want stripe 0", in)
	}

	// Fail-stopped until replay reconciles the stripe.
	if _, err := f.WriteAt(pattern(10, 5), 0); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
	}
	rep, err := recovery.ReplayIntents(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.Abandoned != 1 {
		t.Fatalf("replay report: %+v", rep)
	}

	// The failed RMW's data write, sent beside its parity writes, landed.
	// Reads see it, the stripe accepts writes again, and both parity units
	// verify.
	want := append([]byte(nil), ref...)
	copy(want, upd)
	checkRead(t, f, want, 0)
	upd2 := pattern(10, 8)
	mustWrite(t, f, upd2, 64)
	copy(want[64:], upd2)
	checkRead(t, f, want, 0)
	rsVerifyClean(t, cl, f)

	// The replayed parity really is the GF row: kill two other servers and
	// reconstruct through it.
	for _, d := range []int{0, 1} {
		c.StopServer(d)
		cl.MarkDown(d)
	}
	checkRead(t, f, want, 0)
}
