package cluster

import (
	"bytes"
	"testing"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/simnet"
	"csar/internal/wire"
)

// This file is the deterministic fault-schedule harness for the client's
// resilience layer: each scenario arms request-level faults (inject.go) or
// simnet link faults at exact points in a workload and asserts both the end
// state of the data AND the resilience metrics (retries, timeouts, breaker
// transitions, failovers, lock releases). Nothing here depends on real
// timing except "sleep longer than ProbeAfter", so the scenarios hold under
// -race and -count=2.

// testPolicy returns a fast, jitter-free policy for fault tests; scenarios
// override the fields they exercise.
func testPolicy() client.Policy {
	return client.Policy{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
}

func mustWrite(t *testing.T, f *client.File, p []byte, off int64) {
	t.Helper()
	if _, err := f.WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
}

func checkRead(t *testing.T, f *client.File, want []byte, off int64) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("read mismatch at byte %d: got %d want %d", off+int64(i), got[i], want[i])
			}
		}
	}
}

// TestFaultSchedule is the table of deterministic failure scenarios.
func TestFaultSchedule(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"HangMidStripe", runHangMidStripe},
		{"GhostParityLock", runGhostParityLock},
		{"PartitionStaleVeto", runPartitionStaleVeto},
		{"FlappingServer", runFlappingServer},
		{"KillMidWorkload", runKillMidWorkload},
	}
	for _, s := range scenarios {
		t.Run(s.name, s.run)
	}
}

// runHangMidStripe: a server stops answering reads mid-workload (wedged, not
// crashed — only deadlines can tell). The client must burn exactly its
// deadline+retry budget once, trip the breaker, fail the read over to parity
// reconstruction, and serve every later read degraded without touching the
// wedged server again.
func runHangMidStripe(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("hang", 4, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(1024, 3)
	mustWrite(t, f, ref, 0)

	p := testPolicy()
	p.CallTimeout = 30 * time.Millisecond
	p.Retries = 2
	p.BreakerThreshold = 3 // == total attempts: exactly one trip
	p.ProbeAfter = time.Hour
	cl.SetPolicy(p)

	fault := c.Inject(FaultPoint{Server: 1, Kind: wire.KRead, Action: FaultHang})
	t.Cleanup(fault.Release)

	checkRead(t, f, ref, 0) // fails over to reconstruction mid-read
	select {
	case <-fault.Triggered():
	default:
		t.Fatal("fault never triggered")
	}
	m := cl.Metrics()
	if m.Timeouts != 3 || m.Retries != 2 {
		t.Fatalf("timeouts=%d retries=%d, want 3 and 2 (1 try + 2 retries, all deadlined)", m.Timeouts, m.Retries)
	}
	if m.BreakerTrips != 1 || m.Failovers != 1 || m.DegradedReads < 1 {
		t.Fatalf("trips=%d failovers=%d degradedReads=%d, want 1, 1, >=1",
			m.BreakerTrips, m.Failovers, m.DegradedReads)
	}
	if cl.BreakerStates()[1] != client.BreakerOpen {
		t.Fatalf("server 1 breaker = %v, want open", cl.BreakerStates()[1])
	}

	// Later reads route degraded up front: correct bytes, no new deadlines.
	checkRead(t, f, ref[100:400], 100)
	if m2 := cl.Metrics(); m2.Timeouts != 3 {
		t.Fatalf("degraded-routed read burned %d extra deadlines", m2.Timeouts-3)
	}
}

// runGhostParityLock: the parity server executes a locked parity read but
// the response is lost (FaultBlackhole) — the server holds a lock its owner
// does not know it has. The owner-token release must free it so another
// client's RMW on the same stripe cannot deadlock (the Section 4 protocol's
// dead-peer case).
func runGhostParityLock(t *testing.T) {
	c := newCluster(t, 4)
	clA, clB := c.NewClient(), c.NewClient()
	f, err := clA.Create("ghost", 4, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(768, 5)
	mustWrite(t, f, ref, 0)

	ps := f.Geometry().ParityServerOf(0)
	fault := c.Inject(FaultPoint{Server: ps, Kind: wire.KReadParity, Action: FaultBlackhole})
	t.Cleanup(fault.Release)

	// Client A's RMW: the lock is granted server-side, the reply is lost,
	// the write fails — and A fires the token-scoped UnlockParity.
	if _, err := f.WriteAt(pattern(50, 9), 10); err == nil {
		t.Fatal("write with blackholed parity read unexpectedly succeeded")
	}
	if m := clA.Metrics(); m.LockReleases != 1 {
		t.Fatalf("lockReleases=%d, want 1", m.LockReleases)
	}
	fault.Release()

	// Client B's RMW on the same stripe must acquire the lock — it may queue
	// briefly behind the ghost until A's release lands, but never deadlock.
	fb, err := clB.Open("ghost")
	if err != nil {
		t.Fatal(err)
	}
	bdata := pattern(50, 11)
	if _, err := fb.WriteAt(bdata, 10); err != nil {
		t.Fatalf("RMW behind ghost lock: %v", err)
	}
	copy(ref[10:], bdata)
	checkRead(t, fb, ref, 0)
	// A's failed RMW must not have written its data.
	checkRead(t, f, ref, 0)
}

// runPartitionStaleVeto: a server is partitioned away during Hybrid overflow
// writes, the writes proceed degraded (so the server's stores go stale), the
// partition heals — and the breaker's probe must REFUSE to re-admit the
// healthy-looking server until Rebuild + MarkUp, or clients would read stale
// bytes.
func runPartitionStaleVeto(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("part", 4, 64, wire.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	p := testPolicy()
	p.CallTimeout = 500 * time.Millisecond
	p.BreakerThreshold = 1
	p.ProbeAfter = 20 * time.Millisecond
	cl.SetPolicy(p)

	ref := make([]byte, 1024)
	head := pattern(512, 7)
	mustWrite(t, f, head, 0)
	copy(ref, head)

	c.PartitionServer(2)
	// The overflow write spans every server; the partitioned one fails it.
	tail := pattern(255, 8)
	if _, err := f.WriteAt(tail, 512); err == nil {
		t.Fatal("write through partition unexpectedly succeeded")
	}
	if m := cl.Metrics(); m.BreakerTrips != 1 {
		t.Fatalf("breakerTrips=%d, want 1", m.BreakerTrips)
	}
	// Retried, the write goes degraded — and marks server 2 stale.
	mustWrite(t, f, tail, 512)
	copy(ref[512:], tail)
	if m := cl.Metrics(); m.DegradedWrites != 1 {
		t.Fatalf("degradedWrites=%d, want 1", m.DegradedWrites)
	}

	// Heal the network and give the breaker a due probe: the server answers
	// Health, but it missed a degraded write, so re-admission must be vetoed.
	c.HealServer(2)
	time.Sleep(3 * p.ProbeAfter)
	checkRead(t, f, ref, 0)
	m := cl.Metrics()
	if m.BreakerProbes < 1 {
		t.Fatalf("no re-admission probe ran after heal (probes=%d)", m.BreakerProbes)
	}
	if m.BreakerReadmits != 0 {
		t.Fatalf("stale server re-admitted (readmits=%d)", m.BreakerReadmits)
	}
	if cl.BreakerStates()[2] != client.BreakerOpen {
		t.Fatalf("server 2 breaker = %v, want open until rebuild", cl.BreakerStates()[2])
	}

	// Only the full recovery path re-admits: replace, rebuild, mark up.
	c.ReplaceServer(2)
	if err := recovery.Rebuild(cl, f, 2); err != nil {
		t.Fatal(err)
	}
	cl.MarkUp(2)
	if cl.BreakerStates()[2] != client.BreakerClosed {
		t.Fatalf("server 2 breaker = %v after MarkUp, want closed", cl.BreakerStates()[2])
	}
	checkRead(t, f, ref, 0)
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("inconsistent after rebuild: %v", problems[0])
	}
	if m := cl.Metrics(); m.DegradedReads < 1 {
		t.Fatalf("degradedReads=%d, want >=1 while the breaker held the server out", m.DegradedReads)
	}
}

// runFlappingServer: a server drops out and comes back three times. Each
// outage must trip the breaker and fail reads over exactly once; each return
// must be noticed by a probing re-admission (no stale writes ran, so
// re-admission is legal) and traffic must move back to the normal path.
func runFlappingServer(t *testing.T) {
	c := newCluster(t, 3)
	cl := c.NewClient()
	f, err := cl.Create("flap", 3, 64, wire.Raid1)
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(384, 13)
	mustWrite(t, f, ref, 0)

	p := testPolicy()
	p.BreakerThreshold = 1
	p.ProbeAfter = 0 // a probe is due as soon as the breaker opens
	cl.SetPolicy(p)

	for cycle := 0; cycle < 3; cycle++ {
		fault := c.Inject(FaultPoint{Server: 1, Kind: wire.KRead, Action: FaultDrop})
		checkRead(t, f, ref, 0) // trip + failover, served from mirrors
		if cl.BreakerStates()[1] != client.BreakerOpen {
			t.Fatalf("cycle %d: breaker not open after drop", cycle)
		}
		fault.Release()
		checkRead(t, f, ref, 0) // probe re-admits; normal path again
		if cl.BreakerStates()[1] != client.BreakerClosed {
			t.Fatalf("cycle %d: breaker not re-closed after recovery", cycle)
		}
	}
	m := cl.Metrics()
	if m.BreakerTrips != 3 || m.BreakerReadmits != 3 || m.Failovers != 3 {
		t.Fatalf("trips=%d readmits=%d failovers=%d, want 3 each",
			m.BreakerTrips, m.BreakerReadmits, m.Failovers)
	}
	if m.Timeouts != 0 {
		t.Fatalf("timeouts=%d on a fast-failing link, want 0", m.Timeouts)
	}
}

// runKillMidWorkload is the acceptance scenario: on the full RPC stack, a
// simnet fault schedule hangs every message to one I/O server in the middle
// of a workload. The client must complete every subsequent read with correct
// bytes through the degraded paths, with non-zero retry/timeout/breaker
// metrics, and partial-stripe writes must keep succeeding without a
// parity-lock deadlock.
func runKillMidWorkload(t *testing.T) {
	c := newCluster(t, 4)
	t.Cleanup(c.Network().ClearFaults) // wake hung sends before teardown
	cl := c.NewClient()
	f, err := cl.Create("kill", 4, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	p := testPolicy()
	p.CallTimeout = 40 * time.Millisecond
	p.Retries = 1
	p.BreakerThreshold = 2 // == total attempts of the first failing read
	p.ProbeAfter = time.Hour
	cl.SetPolicy(p)

	// Phase 1: healthy workload.
	const size = 2048
	ref := pattern(size, 17)
	mustWrite(t, f, ref, 0)
	checkRead(t, f, ref, 0)
	must(t, f.Sync()) // no retire of phase 1's writes is left to go out after the kill

	// The kill: every frame toward iod1 hangs silently from now on.
	<-c.Network().RunSchedule([]simnet.FaultStep{
		{From: simnet.Wildcard, To: c.ServerNodeName(1), Fault: simnet.LinkFault{Hang: true}},
	})

	// Phase 2: the very next read pays the deadline budget, trips the
	// breaker, and fails over; every read after that routes degraded up
	// front. All of them must return correct bytes.
	offs := []int64{0, 64, 100, 500, 777, 1000, 1300, 1500, 1800, 40,
		128, 256, 320, 600, 900, 1100, 1400, 1700, 1900, 2000}
	for i, off := range offs {
		n := int64(48 + 13*i)
		if off+n > size {
			n = size - off
		}
		checkRead(t, f, ref[off:off+n], off)
	}

	// Partial-stripe writes while the server is gone: degraded RMW, parity
	// locks on live servers only — no deadlock on the dead peer.
	for i, off := range []int64{10, 300, 1030} {
		data := pattern(50, byte(20+i))
		mustWrite(t, f, data, off)
		copy(ref[off:], data)
	}
	checkRead(t, f, ref, 0)

	m := cl.Metrics()
	if m.Timeouts != 2 || m.Retries != 1 {
		t.Fatalf("timeouts=%d retries=%d, want exactly 2 and 1 (one deadline budget)", m.Timeouts, m.Retries)
	}
	if m.BreakerTrips != 1 || m.Failovers != 1 {
		t.Fatalf("trips=%d failovers=%d, want 1 and 1", m.BreakerTrips, m.Failovers)
	}
	if m.DegradedReads < int64(len(offs)) || m.DegradedWrites != 3 {
		t.Fatalf("degradedReads=%d degradedWrites=%d, want >=%d and 3",
			m.DegradedReads, m.DegradedWrites, len(offs))
	}
}

// TestAutoFailoverMidRead is the regression for the core promise: a server
// dying mid-read (never marked down by anyone) reroutes through the degraded
// paths automatically and returns correct bytes, for every redundant scheme.
func TestAutoFailoverMidRead(t *testing.T) {
	for _, scheme := range redundantSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCluster(t, 4)
			cl := c.NewClient()
			f, err := cl.Create("auto", 4, 64, scheme)
			if err != nil {
				t.Fatal(err)
			}
			ref := pattern(1024, 21)
			mustWrite(t, f, ref, 0)

			c.StopServer(2) // nobody calls MarkDown
			checkRead(t, f, ref, 0)
			m := cl.Metrics()
			if m.Failovers < 1 || m.DegradedReads < 1 {
				t.Fatalf("failovers=%d degradedReads=%d, want >=1 each", m.Failovers, m.DegradedReads)
			}
		})
	}

	t.Run("raid0-still-errors", func(t *testing.T) {
		c := newCluster(t, 4)
		cl := c.NewClient()
		f, err := cl.Create("auto0", 4, 64, wire.Raid0)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, f, pattern(1024, 22), 0)
		c.StopServer(2)
		if _, err := f.ReadAt(make([]byte, 1024), 0); err == nil {
			t.Fatal("raid0 read off a dead server returned no error")
		}
	})
}
