package csar_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"csar"
	"csar/internal/client"
	"csar/internal/cluster"
	"csar/internal/wire"
)

func TestMetricsTrackSchemeDecisions(t *testing.T) {
	c := newTestCluster(t, 4) // stripe = 3 * 4096
	cl := c.NewClient()
	f, err := cl.Create("m", csar.FileOptions{Scheme: csar.Hybrid, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}

	// One aligned full stripe, one small partial, one mixed write.
	f.WriteAt(make([]byte, 3*4096), 0)      // full-stripe portion only
	f.WriteAt(make([]byte, 100), 500)       // overflow portion only
	f.WriteAt(make([]byte, 2*3*4096), 6000) // overflow head + body + tail
	buf := make([]byte, 1000)
	f.ReadAt(buf, 0)

	m := cl.Metrics()
	if m.Writes != 3 || m.Reads != 1 {
		t.Fatalf("writes=%d reads=%d", m.Writes, m.Reads)
	}
	if m.WriteBytes != 3*4096+100+2*3*4096 {
		t.Fatalf("writeBytes=%d", m.WriteBytes)
	}
	if m.ReadBytes != 1000 {
		t.Fatalf("readBytes=%d", m.ReadBytes)
	}
	if m.FullStripes != 2 { // writes 1 and 3 each have one body portion
		t.Fatalf("fullStripes=%d", m.FullStripes)
	}
	if m.OverflowWrites != 3 { // write 2, plus write 3's head and tail
		t.Fatalf("overflowWrites=%d", m.OverflowWrites)
	}
	if m.RMWs != 0 || m.MirrorWrites != 0 {
		t.Fatalf("hybrid did RMW/mirror: %+v", m)
	}
}

func TestMetricsRMWAndMirror(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()

	f5, err := cl.Create("r5", csar.FileOptions{Scheme: csar.Raid5, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f5.WriteAt(make([]byte, 100), 0) // partial -> RMW under RAID5
	if m := cl.Metrics(); m.RMWs != 1 {
		t.Fatalf("rmws=%d", m.RMWs)
	}

	f1, err := cl.Create("r1", csar.FileOptions{Scheme: csar.Raid1, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f1.WriteAt(make([]byte, 100), 0)
	if m := cl.Metrics(); m.MirrorWrites != 1 {
		t.Fatalf("mirrorWrites=%d", m.MirrorWrites)
	}
}

func TestMetricsDegradedCounters(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("d", csar.FileOptions{Scheme: csar.Raid5, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 3*4096), 0)
	c.StopServer(2)
	cl.MarkDown(2)
	f.ReadAt(make([]byte, 100), 0)
	f.WriteAt(make([]byte, 100), 0)
	m := cl.Metrics()
	if m.DegradedReads != 1 || m.DegradedWrites != 1 {
		t.Fatalf("degraded reads=%d writes=%d", m.DegradedReads, m.DegradedWrites)
	}
}

func TestMetricsCompaction(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("c", csar.FileOptions{Scheme: csar.Hybrid, StripeUnit: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 200), 10)
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if m := cl.Metrics(); m.Compactions != 1 {
		t.Fatalf("compactions=%d", m.Compactions)
	}
}

// TestMetricsResyncCounters drives the dirty-log/resync machinery through
// the public API and checks its four counters: DirtyUnits (damage logged by
// degraded writes), ResyncedUnits (items replayed), ResyncForwards (writes
// forwarded behind the sync-point cursor), and FullRebuildFallbacks (resyncs
// that could not trust the log).
func TestMetricsResyncCounters(t *testing.T) {
	c := newTestCluster(t, 5)
	cl := c.NewClient()
	f, err := cl.Create("r", csar.FileOptions{Scheme: csar.Raid5, StripeUnit: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}

	const dead = 2
	c.StopServer(dead)
	cl.MarkDown(dead)
	if _, err := f.WriteAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	if m := cl.Metrics(); m.DirtyUnits == 0 {
		t.Fatalf("DirtyUnits = 0 after a degraded write: %+v", m)
	}
	c.RestartServer(dead)

	// A write behind the sync-point cursor is forwarded, not re-logged.
	ic := cl.InternalClient()
	ref := f.Internal().Ref()
	pass, err := ic.BeginPass(ref.ID, dead, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass.Exclusive(func() { pass.Advance(math.MaxInt64) })
	if _, err := f.WriteAt(make([]byte, 256), 1024); err != nil {
		t.Fatal(err)
	}
	pass.End()
	if m := cl.Metrics(); m.ResyncForwards != 1 {
		t.Fatalf("ResyncForwards = %d, want 1", m.ResyncForwards)
	}

	rep, err := cl.Resync(f, dead, csar.ResyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.ResyncedUnits == 0 || m.ResyncedUnits != rep.Items() {
		t.Fatalf("ResyncedUnits = %d, report items = %d", m.ResyncedUnits, rep.Items())
	}
	if m.FullRebuildFallbacks != 0 {
		t.Fatalf("FullRebuildFallbacks = %d before any fallback", m.FullRebuildFallbacks)
	}
	cl.MarkUp(dead)

	// Wipe one replica's log mid-outage: the next resync cannot trust the
	// epochs and must fall back to a full rebuild.
	c.StopServer(dead)
	cl.MarkDown(dead)
	if _, err := f.WriteAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	c.RestartServer(dead)
	r := client.DirtyReplicas(c.Servers(), dead)[0]
	if _, err := c.Internal().Server(r).Handle(&wire.ClearDirty{File: ref, Dead: uint16(dead), All: true}); err != nil {
		t.Fatal(err)
	}
	rep, err = cl.Resync(f, dead, csar.ResyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullRebuild {
		t.Fatalf("resync with a wiped replica did not fall back: %+v", rep)
	}
	if m := cl.Metrics(); m.FullRebuildFallbacks != 1 {
		t.Fatalf("FullRebuildFallbacks = %d, want 1", m.FullRebuildFallbacks)
	}
	cl.MarkUp(dead)
	if problems, err := cl.Verify(f); err != nil || len(problems) != 0 {
		t.Fatalf("verify: %v %v", problems, err)
	}
}

// TestMetricsLeaseAndIntent drives the write-hole machinery end to end and
// checks the four crash-consistency counters. Phase one stalls an RMW while
// the heartbeat keeps its session's lease alive (LeaseRenewals). Phase two
// stalls an RMW with the heartbeats to its parity server lost, so the server
// expires the session (LeaseExpiries), then replays the abandoned stripe
// intent (IntentsAbandoned, IntentsReplayed).
func TestMetricsLeaseAndIntent(t *testing.T) {
	c := newTestCluster(t, 4)
	cl := c.NewClient()
	ic := c.Internal()

	// Phase 1: a healthy heartbeat over a stalled RMW.
	p := csar.DefaultPolicy()
	p.CallTimeout = 0 // hangs must block, not time out
	p.Retries = 2     // the hung read succeeds on its post-release retry
	p.BackoffBase = time.Millisecond
	p.BackoffMax = 2 * time.Millisecond
	p.LockLease = 300 * time.Millisecond // heartbeats every 100ms
	cl.SetResilience(p)

	fa, err := cl.Create("lease-a", csar.FileOptions{Scheme: csar.Raid5, StripeUnit: 64})
	if err != nil {
		t.Fatal(err)
	}
	ga := fa.Internal().Geometry()
	if _, err := fa.WriteAt(make([]byte, 3*64), 0); err != nil {
		t.Fatal(err)
	}
	firstA, _ := ga.DataUnitsOf(0)
	hang := ic.Inject(cluster.FaultPoint{
		Server: ga.ServerOf(firstA), Kind: wire.KRead, Action: cluster.FaultHang,
	})
	done := make(chan error, 1)
	go func() {
		_, werr := fa.WriteAt(make([]byte, 10), 0)
		done <- werr
	}()
	<-hang.Triggered()
	deadline := time.Now().Add(10 * time.Second)
	for cl.Metrics().LeaseRenewals < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("leaseRenewals stuck at %d", cl.Metrics().LeaseRenewals)
		}
		time.Sleep(2 * time.Millisecond)
	}
	hang.Release()
	if werr := <-done; werr != nil {
		t.Fatalf("RMW failed despite live heartbeat: %v", werr)
	}
	m := cl.Metrics()
	if m.LeaseRenewals < 2 || m.LeaseExpiries != 0 {
		t.Fatalf("after phase 1: renewals=%d expiries=%d", m.LeaseRenewals, m.LeaseExpiries)
	}

	// Phase 2: heartbeats lost, short lease — the server expires the
	// session, revoking the lock under the stalled RMW, and the unlocking
	// parity write is fenced.
	p.LockLease = 40 * time.Millisecond
	p.BreakerThreshold = 0 // the lost heartbeats must not mark the parity server down
	cl.SetResilience(p)

	fb, err := cl.Create("lease-b", csar.FileOptions{Scheme: csar.Raid5, StripeUnit: 64})
	if err != nil {
		t.Fatal(err)
	}
	gb := fb.Internal().Geometry()
	if _, err := fb.WriteAt(make([]byte, 3*64), 0); err != nil {
		t.Fatal(err)
	}
	firstB, _ := gb.DataUnitsOf(0)
	ps := gb.ParityServerOf(0)
	lost := ic.Inject(cluster.FaultPoint{Server: ps, Kind: wire.KRenewLease, Action: cluster.FaultDrop})
	defer lost.Release()
	hang = ic.Inject(cluster.FaultPoint{
		Server: gb.ServerOf(firstB), Kind: wire.KRead, Action: cluster.FaultHang,
	})
	go func() {
		_, werr := fb.WriteAt(make([]byte, 10), 0)
		done <- werr
	}()
	<-hang.Triggered()
	// Wait for the server-side expiry (the intent flips to abandoned).
	for {
		resp, lerr := cl.InternalClient().ServerCaller(ps).Call(&wire.ListIntents{File: fb.Internal().Ref()})
		if lerr != nil {
			t.Fatal(lerr)
		}
		ints := resp.(*wire.ListIntentsResp).Intents
		if len(ints) == 1 && ints[0].Abandoned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired server-side: %+v", ints)
		}
		time.Sleep(2 * time.Millisecond)
	}
	hang.Release()
	if werr := <-done; !errors.Is(werr, csar.ErrLeaseExpired) {
		t.Fatalf("stalled RMW returned %v, want ErrLeaseExpired", werr)
	}
	if m := cl.Metrics(); m.LeaseExpiries != 1 {
		t.Fatalf("leaseExpiries=%d, want 1", m.LeaseExpiries)
	}

	// The stripe is fail-stopped until replay reconciles it.
	if _, werr := fb.WriteAt(make([]byte, 10), 0); !errors.Is(werr, csar.ErrStripeTorn) {
		t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", werr)
	}
	rep, err := cl.ReplayIntents(fb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.Abandoned != 1 {
		t.Fatalf("replay report: %+v", rep)
	}
	m = cl.Metrics()
	if m.IntentsReplayed != 1 || m.IntentsAbandoned != 1 {
		t.Fatalf("intent metrics: replayed=%d abandoned=%d", m.IntentsReplayed, m.IntentsAbandoned)
	}
	if problems, err := cl.Verify(fb); err != nil || len(problems) != 0 {
		t.Fatalf("verify after replay: %v %v", problems, err)
	}
	if _, err := fb.WriteAt(make([]byte, 10), 0); err != nil {
		t.Fatalf("RMW after replay: %v", err)
	}
}
