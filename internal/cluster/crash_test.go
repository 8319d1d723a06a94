package cluster

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csar/internal/client"
	"csar/internal/recovery"
	"csar/internal/scrub"
	"csar/internal/server"
	"csar/internal/storage"
	"csar/internal/wire"
)

// This file is the deterministic crash-consistency suite for the RAID5
// write-hole closure: a client that dies mid-read-modify-write, a parity
// server that dies before its unlocking parity write lands, a stalled but
// live client whose heartbeat must keep its session's lease alive, and the
// cut points of the pending intent between the unlocking parity write and
// the watermark that retires it (data write lost, heartbeats lost, a second
// client behind a pending intent, a parity server restarted with its intent
// still pending, a release lost ahead of a completed update). Every scenario
// ends the same way — recovery.ReplayIntents reconciles the stripe, then
// recovery.Verify and a scrub pass report zero inconsistencies and reads
// return exactly the bytes the surviving writes put down. Ordering comes
// from fault injection and polling, never fixed sleeps racing the work, so
// the scenarios hold under -race and -count=2.

// waitIntent polls server srv's intent list for file ref until it reports
// exactly one intent with the given abandoned state.
func waitIntent(t *testing.T, cl *client.Client, srv int, ref wire.FileRef, abandoned bool) wire.Intent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.ServerCaller(srv).Call(&wire.ListIntents{File: ref})
		if err != nil {
			t.Fatal(err)
		}
		ints := resp.(*wire.ListIntentsResp).Intents
		if len(ints) == 1 && ints[0].Abandoned == abandoned {
			return ints[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("intent never reached state abandoned=%v: %+v", abandoned, ints)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashClientMidRMW: a client acquires a stripe's parity lock with a
// short lease, lands new bytes in one data unit, then dies — no heartbeat,
// no unlocking parity write. The server must expire the lease, fail-stop
// the stripe (new RMWs refused with ErrStripeTorn), and replay must
// reconstruct the parity over the bytes the dead client managed to write.
// The doomed update is a whole data unit under a whole-unit parity read, or
// a few bytes inside one under a read of just their parity range: replay
// recomputes the whole unit either way.
func TestCrashClientMidRMW(t *testing.T) {
	for _, tc := range []struct {
		name     string
		off, len int64 // the torn bytes, within the stripe's first data unit
		ranged   bool
	}{
		{"whole unit", 0, 64, false},
		{"ranged", 10, 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4)
			cl := c.NewClient()
			f, err := cl.Create("crash-client", 4, 64, wire.Raid5)
			if err != nil {
				t.Fatal(err)
			}
			g := f.Geometry()
			ref := pattern(int(2*g.StripeSize()), 1)
			mustWrite(t, f, ref, 0)

			// The doomed client's half-finished RMW, replayed by hand: locked
			// parity read with a 40ms lease, data overwritten, then silence.
			ps := g.ParityServerOf(0)
			token := uint64(0xD15EA5ED)
			var ranges []wire.Span
			if tc.ranged {
				ranges = []wire.Span{{Off: tc.off, Len: tc.len}}
			}
			if _, err := cl.ServerCaller(ps).Call(&wire.ReadParity{
				File: f.Ref(), Stripes: []int64{0}, Lock: true, Session: token, Seq: 1, LeaseMS: 40, Ranges: ranges,
			}); err != nil {
				t.Fatal(err)
			}
			first, _ := g.DataUnitsOf(0)
			torn := pattern(int(tc.len), 9)
			span := wire.Span{Off: g.UnitStart(first) + tc.off, Len: tc.len}
			if _, err := cl.ServerCaller(g.ServerOf(first)).Call(&wire.WriteData{
				File: f.Ref(), Spans: []wire.Span{span}, Data: torn, Raw: true,
			}); err != nil {
				t.Fatal(err)
			}

			// The session's lease expires with no heartbeat: the intent goes
			// abandoned.
			in := waitIntent(t, cl, ps, f.Ref(), true)
			if in.Stripe != 0 || in.Session != token || in.Seq != 1 {
				t.Fatalf("abandoned intent = %+v, want stripe 0 of session %#x seq 1", in, token)
			}
			st := c.Server(ps).IntentStats()
			if st.LeaseExpiries != 1 || st.Abandoned != 1 {
				t.Fatalf("server stats after expiry: %+v", st)
			}

			// The stripe is fail-stopped: a fresh RMW is refused, not wedged.
			if _, err := f.WriteAt(pattern(10, 5), 0); !errors.Is(err, wire.ErrStripeTorn) {
				t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
			}

			// Replay reconciles: parity is recomputed from the data units as
			// they are now (old bytes + the dead client's).
			rep, err := recovery.ReplayIntents(cl, f)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Replayed != 1 || rep.Abandoned != 1 || rep.Open != 0 || rep.Skipped != 0 {
				t.Fatalf("replay report: %+v", rep)
			}
			if m := cl.Metrics(); m.IntentsReplayed != 1 || m.IntentsAbandoned != 1 {
				t.Fatalf("replay metrics: replayed=%d abandoned=%d", m.IntentsReplayed, m.IntentsAbandoned)
			}
			problems, err := recovery.Verify(cl, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 0 {
				t.Fatalf("verify after replay: %v", problems)
			}
			srep, err := scrub.Run(cl, f, scrub.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !srep.Clean() || srep.IntentSkips != 0 {
				t.Fatalf("scrub after replay: %v (skips=%d)", srep, srep.IntentSkips)
			}

			// Reads return the merged truth, and the stripe accepts RMWs again.
			want := append([]byte(nil), ref...)
			copy(want[span.Off:], torn)
			checkRead(t, f, want, 0)
			upd := pattern(10, 6)
			mustWrite(t, f, upd, 0)
			copy(want, upd)
			checkRead(t, f, want, 0)
			if problems, err = recovery.Verify(cl, f); err != nil || len(problems) != 0 {
				t.Fatalf("final verify: %v %v", problems, err)
			}
		})
	}
}

// TestCrashServerMidParityWrite: the data write lands, but the parity
// server dies before the unlocking parity write beside it (and the client's
// dirty compensation) can reach it. After restart the journal must
// resurrect the intent as abandoned, and replay must install parity
// matching the new data.
func TestCrashServerMidParityWrite(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("crash-server", 4, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Geometry()
	ref := pattern(int(2*g.StripeSize()), 2)
	mustWrite(t, f, ref, 0)

	p := testPolicy()
	p.LockLease = 10 * time.Second // its heartbeat does not tick within this scenario
	cl.SetPolicy(p)

	// The parity server stops acknowledging parity writes — and the
	// client's compensating dirty unlock — as if it died mid-request.
	ps := g.ParityServerOf(0)
	fwp := c.Inject(FaultPoint{Server: ps, Kind: wire.KWriteParity, Action: FaultDrop})
	ful := c.Inject(FaultPoint{Server: ps, Kind: wire.KUnlockParity, Action: FaultDrop})

	upd := pattern(10, 7)
	if _, err := f.WriteAt(upd, 0); err == nil {
		t.Fatal("RMW succeeded despite dropped parity write")
	}

	// Crash-restart: the fresh instance loads the journal and finds the
	// open intent; no pre-crash update can still be in flight, so it comes
	// back abandoned.
	c.CrashServer(ps)
	fwp.Release()
	ful.Release()
	c.RestartServer(ps)
	in := waitIntent(t, cl, ps, f.Ref(), true)
	if in.Stripe != 0 {
		t.Fatalf("journal-loaded intent = %+v, want stripe 0", in)
	}
	if st := c.Server(ps).IntentStats(); st.Abandoned != 1 {
		t.Fatalf("restart stats: %+v", st)
	}

	// Fail-stopped until replay; then consistent with the landed data.
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
	problems, err := recovery.Verify(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("verify after replay: %v", problems)
	}
	srep, err := scrub.Run(cl, f, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !srep.Clean() || srep.IntentSkips != 0 {
		t.Fatalf("scrub after replay: %v (skips=%d)", srep, srep.IntentSkips)
	}

	// The failed RMW's data write, sent beside the lost parity write, DID
	// land: reads see it, and the stripe takes writes again.
	want := append([]byte(nil), ref...)
	copy(want, upd)
	checkRead(t, f, want, 0)
	upd2 := pattern(10, 8)
	mustWrite(t, f, upd2, 64)
	copy(want[64:], upd2)
	checkRead(t, f, want, 0)
}

// TestLeaseRenewalKeepsLock: an RMW stalls mid-flight (a data server hangs)
// for several lease periods, but the client is alive — its heartbeat must
// keep renewing the lease so the server never revokes the lock, and the
// RMW must complete normally once the server recovers.
func TestLeaseRenewalKeepsLock(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("renew", 4, 64, wire.Raid5)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Geometry()
	ref := pattern(int(g.StripeSize()), 3)
	mustWrite(t, f, ref, 0)

	p := testPolicy()
	p.Retries = 2                        // the hung read must succeed on its post-release retry
	p.LockLease = 500 * time.Millisecond // heartbeats every 166ms
	cl.SetPolicy(p)

	// Hang the old-data read of the RMW: the parity lock is already held
	// (with its lease ticking) while the client waits.
	first, _ := g.DataUnitsOf(0)
	fault := c.Inject(FaultPoint{Server: g.ServerOf(first), Kind: wire.KRead, Action: FaultHang})

	upd := pattern(10, 8)
	done := make(chan error, 1)
	go func() {
		_, werr := f.WriteAt(upd, 0)
		done <- werr
	}()
	<-fault.Triggered()
	time.Sleep(3 * p.LockLease / 2) // well past the un-renewed deadline
	fault.Release()
	if werr := <-done; werr != nil {
		t.Fatalf("RMW failed despite live heartbeat: %v", werr)
	}

	m := cl.Metrics()
	if m.LeaseRenewals < 2 {
		t.Fatalf("leaseRenewals=%d, want >=2 over 1.5 lease periods", m.LeaseRenewals)
	}
	if m.LeaseExpiries != 0 {
		t.Fatalf("leaseExpiries=%d, want 0", m.LeaseExpiries)
	}
	ps := g.ParityServerOf(0)
	if err := f.Sync(); err != nil { // retires the RMW's pending intent
		t.Fatal(err)
	}
	st := c.Server(ps).IntentStats()
	if st.LeaseExpiries != 0 || st.Abandoned != 0 || st.Retired < 1 || st.LeaseRenewals < 2 {
		t.Fatalf("server stats: %+v", st)
	}
	resp, err := cl.ServerCaller(ps).Call(&wire.ListIntents{File: f.Ref()})
	if err != nil {
		t.Fatal(err)
	}
	if ints := resp.(*wire.ListIntentsResp).Intents; len(ints) != 0 {
		t.Fatalf("intents left behind: %+v", ints)
	}

	want := append([]byte(nil), ref...)
	copy(want, upd)
	checkRead(t, f, want, 0)
	if problems, err := recovery.Verify(cl, f); err != nil || len(problems) != 0 {
		t.Fatalf("verify: %v %v", problems, err)
	}
}

// TestLeaseHeartbeatBeforeFirstRead: a client's first locked read on a
// server is held up on its way, so the heartbeat reaches the server before
// the session exists there and is answered not live, tick after tick. That
// is no expiry: the client keeps its session, the read then opens it, and
// the update's intent retires at the next watermark, never abandoned.
func TestLeaseHeartbeatBeforeFirstRead(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, ref := crashFile(t, c, cl, 4, wire.Raid5)
	ps := f.Geometry().ParityServerOf(0)
	p := testPolicy()
	p.LockLease = 300 * time.Millisecond // heartbeats every 100ms
	cl.SetPolicy(p)
	held := c.Inject(FaultPoint{Server: ps, Kind: wire.KReadParity, Action: FaultPause})

	upd := pattern(10, 7)
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(upd, 0)
		done <- err
	}()
	<-held.Triggered()
	time.Sleep(p.LockLease) // three heartbeats answered not live
	held.Release()
	must(t, <-done)
	copy(ref, upd)
	must(t, f.Sync())
	waitIntentsState(t, cl, ps, f.Ref(), 0, 0)
	if m, st := cl.Metrics(), c.Server(ps).IntentStats(); m.LeaseExpiries != 0 || st.Abandoned != 0 || st.Retired != 1 {
		t.Fatalf("client expiries %d, server stats %+v; want no expiry and the intent retired", m.LeaseExpiries, st)
	}
	recoverClean(t, cl, f, 0, ref)
}

// TestLeaseNewSessionAfterExpiry: the server expires a client's session
// while the client cannot hear of it — its heartbeats are lost — so the
// client's next update on that server names the expired session. Its locked
// read is refused with ErrLeaseExpired before any lock is taken, and the
// client asks again under a new session: the update succeeds, and only the
// stripe the expired session held is fail-stopped.
func TestLeaseNewSessionAfterExpiry(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("expiry", 4, 64, wire.Raid5)
	must(t, err)
	g := f.Geometry()
	ps := g.ParityServerOf(0)
	later := int64(1)
	for g.ParityServerOf(later) != ps {
		later++
	}
	ref := pattern(int((later+1)*g.StripeSize()), 2)
	mustWrite(t, f, ref, 0)
	p := testPolicy()
	p.LockLease = 40 * time.Millisecond
	cl.SetPolicy(p)
	rl := c.Inject(FaultPoint{Server: ps, Kind: wire.KRenewLease, Action: FaultDrop})
	defer rl.Release()

	upd := pattern(10, 7)
	mustWrite(t, f, upd, 0) // its intent waits for a watermark that never arrives
	copy(ref, upd)
	if in := waitIntent(t, cl, ps, f.Ref(), true); in.Stripe != 0 {
		t.Fatalf("abandoned intent = %+v, want stripe 0", in)
	}
	upd = pattern(10, 8)
	off := later * g.StripeSize()
	mustWrite(t, f, upd, off)
	copy(ref[off:], upd)
	if m := cl.Metrics(); m.LeaseExpiries != 1 {
		t.Fatalf("client lease expiries %d, want 1", m.LeaseExpiries)
	}
	if _, err := f.WriteAt(pattern(10, 5), 0); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
	}
	rl.Release()
	must(t, f.Sync())
	recoverClean(t, cl, f, 1, ref)
}

// flakyParity is a backend whose parity stores fail the next fails writes.
type flakyParity struct {
	storage.Backend
	fails *atomic.Int32
}

type flakyParityFile struct {
	storage.File
	fails *atomic.Int32
}

func (d flakyParity) Open(name string) storage.File {
	f := d.Backend.Open(name)
	if strings.HasSuffix(name, ".parity") {
		return flakyParityFile{f, d.fails}
	}
	return f
}

func (f flakyParityFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fails.Load() > 0 && f.fails.Add(-1) >= 0 {
		return 0, errors.New("parity disk write failed")
	}
	return f.File.WriteAt(p, off)
}

// TestLeaseFailedParityWriteReleased: an update's unlocking parity write
// fails on the parity server's disk, which then neither unlocks the stripe
// nor leaves its intent pending. The client keeps its session on that
// server live with updates of another stripe there, so no expiry will clean
// up: its dirty release must. Within one lease the stripe is abandoned and
// its lock revoked — a new update is refused with ErrStripeTorn, not queued
// — and replay re-encodes parity over the data write that landed beside the
// failed one.
func TestLeaseFailedParityWriteReleased(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("failed-parity", 4, 64, wire.Raid5)
	must(t, err)
	g := f.Geometry()
	ps := g.ParityServerOf(0)
	later := int64(1)
	for g.ParityServerOf(later) != ps {
		later++
	}
	fails := new(atomic.Int32)
	slot := c.servers[ps]
	slot.srv.Store(server.New(ps, flakyParity{slot.disk.Load(), fails}, c.cfg.ServerOpts))
	ref := pattern(int((later+1)*g.StripeSize()), 2)
	mustWrite(t, f, ref, 0)
	p := testPolicy()
	p.LockLease = 300 * time.Millisecond
	cl.SetPolicy(p)

	fails.Store(1)
	upd := pattern(10, 7)
	if _, err := f.WriteAt(upd, 0); err == nil {
		t.Fatal("RMW succeeded despite its failed parity write")
	}
	copy(ref, upd)
	deadline := time.Now().Add(p.LockLease)
	for off, n := later*g.StripeSize(), byte(8); ; n++ {
		upd := pattern(10, n)
		mustWrite(t, f, upd, off)
		copy(ref[off:], upd)
		resp, err := cl.ServerCaller(ps).Call(&wire.ListIntents{File: f.Ref()})
		must(t, err)
		torn := false
		for _, in := range resp.(*wire.ListIntentsResp).Intents {
			torn = torn || in.Stripe == 0 && in.Abandoned
		}
		if torn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stripe 0 not abandoned within one lease (%v): %+v", p.LockLease, resp)
		}
	}
	refused := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(pattern(10, 5), 0)
		refused <- err
	}()
	select {
	case err := <-refused:
		if !errors.Is(err, wire.ErrStripeTorn) {
			t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RMW on the failed stripe still queued after 2s: its lock was never revoked")
	}
	must(t, f.Sync())
	recoverClean(t, cl, f, 1, ref)
}

// The cut points of the two-round read-modify-write: the unlocking parity
// write runs beside the data write and leaves its intent pending, and the
// client's watermark passes the intent once both are acknowledged, retiring
// it. Each scenario below
// cuts the update at one point and ends in recoverClean.

// recoverClean runs the recovery every crash scenario ends in: one replay
// pass that must repair exactly replayed abandoned intents, then Verify, a
// scrub pass that finds nothing and skips no stripe, and a read-back of
// exactly want.
func recoverClean(t *testing.T, cl *client.Client, f *client.File, replayed int, want []byte) {
	t.Helper()
	rep, err := recovery.ReplayIntents(cl, f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != replayed || rep.Abandoned != replayed || rep.Skipped != 0 {
		t.Fatalf("replay report: %+v, want %d replayed", rep, replayed)
	}
	if problems, err := recovery.Verify(cl, f); err != nil || len(problems) != 0 {
		t.Fatalf("verify after replay: %v %v", problems, err)
	}
	srep, err := scrub.Run(cl, f, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !srep.Clean() || srep.IntentSkips != 0 {
		t.Fatalf("scrub after replay: %v (skips=%d)", srep, srep.IntentSkips)
	}
	checkRead(t, f, want, 0)
}

// crashFile creates a RAID5 or RS file of two stripes, fills it and syncs
// it, so a second client opening it sees its size.
func crashFile(t *testing.T, c *Cluster, cl *client.Client, servers int, scheme wire.Scheme) (*client.File, []byte) {
	t.Helper()
	f, err := cl.Create("crash", servers, 64, scheme)
	if err != nil {
		t.Fatal(err)
	}
	ref := pattern(int(2*f.Geometry().StripeSize()), 2)
	mustWrite(t, f, ref, 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	return f, ref
}

// TestCrashParityAckedDataLost: the parity write lands and releases the
// lock, but the data write beside it fails. The client is alive: it
// releases the pending intent dirty, which fail-stops the stripe. Replay
// re-encodes parity from the data, which never changed, so the range reads
// its old bytes.
func TestCrashParityAckedDataLost(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, ref := crashFile(t, c, cl, 4, wire.Raid5)
	g := f.Geometry()
	p := testPolicy()
	p.LockLease = 10 * time.Second
	cl.SetPolicy(p)

	first, _ := g.DataUnitsOf(0)
	wd := c.Inject(FaultPoint{Server: g.ServerOf(first), Kind: wire.KWriteData, Action: FaultDrop})
	if _, err := f.WriteAt(pattern(10, 7), 0); err == nil {
		t.Fatal("RMW succeeded despite its dropped data write")
	}
	wd.Release()
	ps := g.ParityServerOf(0)
	if in := waitIntent(t, cl, ps, f.Ref(), true); in.Stripe != 0 {
		t.Fatalf("abandoned intent = %+v, want stripe 0", in)
	}
	if _, err := f.WriteAt(pattern(10, 5), 0); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
	}
	recoverClean(t, cl, f, 1, ref)
}

// TestCrashBeforeRetire: both writes are acknowledged, then the client dies
// before its watermark arrives (its heartbeats, which carry the watermark
// and renew its session, are lost). The pending intent outlives the
// session's lease and goes abandoned; replay re-encodes parity from data
// that already matches it, and the range reads its new bytes.
func TestCrashBeforeRetire(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, ref := crashFile(t, c, cl, 4, wire.Raid5)
	g := f.Geometry()
	ps := g.ParityServerOf(0)
	p := testPolicy()
	p.LockLease = 40 * time.Millisecond
	cl.SetPolicy(p)
	rl := c.Inject(FaultPoint{Server: ps, Kind: wire.KRenewLease, Action: FaultDrop})

	upd := pattern(10, 7)
	mustWrite(t, f, upd, 0)
	copy(ref, upd)
	if in := waitIntent(t, cl, ps, f.Ref(), true); in.Stripe != 0 {
		t.Fatalf("abandoned intent = %+v, want stripe 0", in)
	}
	if st := c.Server(ps).IntentStats(); st.LeaseExpiries != 1 || st.Retired != 0 {
		t.Fatalf("server stats after expiry: %+v", st)
	}
	rl.Release()

	// Recovery runs on another client: the writer is gone.
	rc := c.NewClient()
	rf, err := rc.Open("crash")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.WriteAt(pattern(10, 5), 0); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
	}
	recoverClean(t, rc, rf, 1, ref)
}

// TestCrashPendingUnderSecondOwner: the first client's RMW completes, then
// it dies: its heartbeats, and the watermark they carry, are lost. A second
// client locks the same stripe behind the pending intent and completes a
// disjoint update; then the first client's session expires. While the
// second client's intent is live, ResolveIntent of the first is refused and
// a replay pass defers it; once the second client's watermark retires its
// intent, replay repairs the stripe and both writers' bytes read back.
func TestCrashPendingUnderSecondOwner(t *testing.T) {
	c := newCluster(t, 4)
	a := c.NewClient()
	fa, ref := crashFile(t, c, a, 4, wire.Raid5)
	g := fa.Geometry()
	ps := g.ParityServerOf(0)
	pa := testPolicy()
	pa.LockLease = 500 * time.Millisecond
	a.SetPolicy(pa)
	rl := c.Inject(FaultPoint{Server: ps, Kind: wire.KRenewLease, Action: FaultDrop})
	defer rl.Release()

	updA := pattern(10, 7)
	mustWrite(t, fa, updA, 0)
	copy(ref, updA)

	b := c.NewClient() // no lease, so no heartbeat: its watermark waits for fb.Sync below
	fb, err := b.Open("crash")
	if err != nil {
		t.Fatal(err)
	}
	updB := pattern(10, 8)
	mustWrite(t, fb, updB, 70) // stripe 0's second data unit
	copy(ref[70:], updB)

	in := waitIntentsState(t, b, ps, fb.Ref(), 1, 1)
	rl.Release() // the first client is gone; the second one's watermark gets through
	resolve := &wire.ResolveIntent{File: fb.Ref(), Stripe: 0, Session: in.Session, Seq: in.Seq, Data: make([]byte, 64)}
	if _, err := b.ServerCaller(ps).Call(resolve); !errors.Is(err, wire.ErrStripeBusy) {
		t.Fatalf("ResolveIntent while the second client's intent is live: %v, want ErrStripeBusy", err)
	}
	rep, err := recovery.ReplayIntents(a, fa)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Abandoned != 1 || rep.Skipped != 1 || rep.Replayed != 0 {
		t.Fatalf("replay with a live second intent: %+v, want the abandoned one deferred", rep)
	}
	if err := fb.Sync(); err != nil { // the second client's watermark retires its intent
		t.Fatal(err)
	}
	recoverClean(t, b, fb, 1, ref)
}

// TestCrashDegradedRMWBehindPending: with one server dead, a degraded
// read-modify-write rebuilds the dead unit's old bytes from parity and the
// live data units. Client A's update of a live unit has landed its
// unlocking parity write, so the lock is free and A's intent is pending.
// Client B's update of the dead unit, at the same in-unit offsets, must not
// decode across A's update while its data write may not have landed: it
// waits under its hold until A's watermark retires the intent. In the first
// row A is driven by hand and its data write is held back until B has
// waited. In the second A is a client that completed its update and went
// idle: B proceeds once A's next heartbeat carries the watermark, within
// A's heartbeat period and before A's lease would have run out, and A's
// intent is never abandoned. After the dead server is rebuilt, both
// writers' bytes read back.
func TestCrashDegradedRMWBehindPending(t *testing.T) {
	for _, tc := range []struct {
		name   string
		byHand bool
	}{{"data write held back", true}, {"completed and idle", false}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4)
			a := c.NewClient()
			f, ref := crashFile(t, c, a, 4, wire.Raid5)
			g := f.Geometry()
			first, _ := g.DataUnitsOf(0)
			ps, dead := g.ParityServerOf(0), g.ServerOf(first+1)
			c.StopServer(dead)
			a.MarkDown(dead)

			// A's update of unit first's bytes [0,10).
			updA := pattern(10, 7)
			const leaseA = 1500 * time.Millisecond // A heartbeats every 500ms
			var landA func()                       // lands A's held-back data write, then its watermark
			if tc.byHand {
				// The parity delta lands and unlocks; the data write is held
				// back.
				const session = uint64(0xA11CE)
				rng := []wire.Span{{Off: 0, Len: 10}}
				resp, err := a.ServerCaller(ps).Call(&wire.ReadParity{
					File: f.Ref(), Stripes: []int64{0}, Lock: true, Session: session, Seq: 1, LeaseMS: 10000, Ranges: rng,
				})
				must(t, err)
				par := resp.(*wire.ReadResp).Data
				for i := range par {
					par[i] ^= ref[g.UnitStart(first)+int64(i)] ^ updA[i]
				}
				_, err = a.ServerCaller(ps).Call(&wire.WriteParity{
					File: f.Ref(), Stripes: []int64{0}, Ranges: rng, Data: par, Unlock: true, Session: session, Seq: 1,
				})
				must(t, err)
				landA = func() {
					_, err := a.ServerCaller(g.ServerOf(first)).Call(&wire.WriteData{
						File: f.Ref(), Spans: []wire.Span{{Off: g.UnitStart(first), Len: 10}}, Data: updA, Raw: true,
					})
					must(t, err)
					_, err = a.ServerCaller(ps).Call(&wire.RenewLease{Session: session, LeaseMS: 10000, Watermark: 1})
					must(t, err)
				}
			} else {
				pa := testPolicy()
				pa.LockLease = leaseA
				a.SetPolicy(pa)
				mustWrite(t, f, updA, g.UnitStart(first))
			}

			b := c.NewClient()
			p := testPolicy()
			p.LockLease = 10 * time.Second
			b.SetPolicy(p)
			b.MarkDown(dead)
			fb, err := b.Open("crash")
			must(t, err)
			updB := pattern(10, 8)
			bDone := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := fb.WriteAt(updB, g.UnitStart(first+1))
				bDone <- err
			}()
			if tc.byHand {
				select {
				case err := <-bDone:
					t.Fatalf("B's degraded RMW finished (%v) while A's data write had not landed", err)
				case <-time.After(50 * time.Millisecond):
				}
				landA()
			}
			must(t, <-bDone)
			if !tc.byHand {
				if took := time.Since(start); took >= leaseA {
					t.Fatalf("B's degraded RMW took %v behind A's idle update, want less than A's lease %v", took, leaseA)
				}
				if st := c.Server(ps).IntentStats(); st.Abandoned != 0 || st.LeaseExpiries != 0 {
					t.Fatalf("A's completed update was abandoned: %+v", st)
				}
			}
			copy(ref[g.UnitStart(first):], updA)
			copy(ref[g.UnitStart(first+1):], updB)

			c.ReplaceServer(dead)
			must(t, recovery.Rebuild(a, f, dead))
			a.MarkUp(dead)
			b.MarkUp(dead)
			must(t, fb.Sync())
			recoverClean(t, a, f, 0, ref)
		})
	}
}

// TestCrashDegradedRMWBehindOwnDirtyRelease: one client runs two updates
// of a stripe while a server is dead. The first lands its unlocking parity
// write, so the lock passes to the second, a degraded read-modify-write of
// the dead unit that waits under its hold for the first update's data
// write. That write fails, and the first update releases its intent dirty.
// The abandoned intent is this client's own and its seq is no longer in
// flight, but the stripe is torn: the second update must end in
// ErrStripeTorn, not decode the dead unit's old bytes across the first
// update's unlanded half.
func TestCrashDegradedRMWBehindOwnDirtyRelease(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, _ := crashFile(t, c, cl, 4, wire.Raid5)
	g := f.Geometry()
	first, _ := g.DataUnitsOf(0)
	ps, dead := g.ParityServerOf(0), g.ServerOf(first+1)
	c.StopServer(dead)
	cl.MarkDown(dead)
	wd := c.Inject(FaultPoint{Server: g.ServerOf(first), Kind: wire.KWriteData, Action: FaultHang})

	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := f.WriteAt(pattern(10, 7), g.UnitStart(first))
		aDone <- err
	}()
	<-wd.Triggered()
	go func() {
		_, err := f.WriteAt(pattern(10, 8), g.UnitStart(first+1))
		bDone <- err
	}()
	waitIntentsState(t, cl, ps, f.Ref(), 0, 2) // the second update holds the lock
	wd.Release()
	if err := <-aDone; err == nil {
		t.Fatal("the first update succeeded despite its failed data write")
	}
	if err := <-bDone; !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("degraded RMW behind this client's dirty release: %v, want ErrStripeTorn", err)
	}
	if st := c.Server(ps).IntentStats(); st.Abandoned != 1 {
		t.Fatalf("server stats: %+v, want the first update's intent abandoned", st)
	}
}

// waitIntentsState polls server srv's intent list for file ref until it
// holds exactly abandoned abandoned and live live intents, and returns an
// abandoned one, if any.
func waitIntentsState(t *testing.T, cl *client.Client, srv int, ref wire.FileRef, abandoned, live int) wire.Intent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.ServerCaller(srv).Call(&wire.ListIntents{File: ref})
		if err != nil {
			t.Fatal(err)
		}
		var gone []wire.Intent
		ints := resp.(*wire.ListIntentsResp).Intents
		for _, in := range ints {
			if in.Abandoned {
				gone = append(gone, in)
			}
		}
		if len(gone) == abandoned && len(ints)-len(gone) == live {
			if len(gone) == 0 {
				return wire.Intent{}
			}
			return gone[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("intents never reached %d abandoned, %d live: %+v", abandoned, live, ints)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashRSBothParityPending: an RS(4,2) RMW completes, leaving both
// parity servers' intents pending, and one parity server crash-restarts
// before the retire. Its intent comes back abandoned and fail-stops the
// stripe; replay recomputes its GF-scaled unit from data that already
// matches, and the new bytes read back.
func TestCrashRSBothParityPending(t *testing.T) {
	c := newCluster(t, 6)
	cl := c.NewClient()
	f, ref := crashFile(t, c, cl, 6, wire.ReedSolomon)
	g := f.Geometry()
	cl.SetPolicy(testPolicy()) // no lease: the intents stay pending until retired

	upd := pattern(10, 7)
	mustWrite(t, f, upd, 0)
	copy(ref, upd)
	ps0, ps1 := g.ParityServerOfUnit(0, 0), g.ParityServerOfUnit(0, 1)
	waitIntent(t, cl, ps0, f.Ref(), false)
	waitIntent(t, cl, ps1, f.Ref(), false)
	c.CrashServer(ps1)
	c.RestartServer(ps1)
	if in := waitIntent(t, cl, ps1, f.Ref(), true); in.Stripe != 0 {
		t.Fatalf("journal-loaded intent = %+v, want stripe 0", in)
	}
	if _, err := f.WriteAt(pattern(10, 5), 0); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("RMW on torn stripe: %v, want ErrStripeTorn", err)
	}
	recoverClean(t, cl, f, 1, ref)
}

// TestRetireDroppedKeepsLease: the watermark of a completed RMW is lost —
// the heartbeat carrying it is dropped, and so is the next RMW's locked
// read, which carried it too. Heartbeats lost for less than a lease cost
// nothing: the session stays live and the pending intent is never
// abandoned, so the stripe is never fail-stopped; once heartbeats get
// through again, the next tick retires it.
func TestRetireDroppedKeepsLease(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, ref := crashFile(t, c, cl, 4, wire.Raid5)
	ps := f.Geometry().ParityServerOf(0)
	p := testPolicy()
	p.LockLease = 600 * time.Millisecond // heartbeats every 200ms
	cl.SetPolicy(p)
	rl := c.Inject(FaultPoint{Server: ps, Kind: wire.KRenewLease, Action: FaultDrop})
	rp := c.Inject(FaultPoint{Server: ps, Kind: wire.KReadParity, After: 1, Action: FaultDrop})

	upd := pattern(10, 7)
	mustWrite(t, f, upd, 0)
	copy(ref, upd)
	if _, err := f.WriteAt(pattern(10, 9), 0); err == nil {
		t.Fatal("RMW succeeded despite its dropped locked read")
	}
	rp.Release()
	<-rl.Triggered() // a heartbeat carrying the watermark was lost
	if in := waitIntent(t, cl, ps, f.Ref(), false); in.Stripe != 0 {
		t.Fatalf("pending intent = %+v, want stripe 0", in)
	}
	rl.Release()
	waitIntentsState(t, cl, ps, f.Ref(), 0, 0)
	must(t, f.Sync()) // the heartbeat that retired it is answered
	st := c.Server(ps).IntentStats()
	if st.LeaseExpiries != 0 || st.Abandoned != 0 || st.Retired != st.Opened {
		t.Fatalf("server stats: %+v", st)
	}
	if m := cl.Metrics(); m.LeaseExpiries != 0 || m.LeaseRenewals == 0 {
		t.Fatalf("client leases: %d expiries, %d renewals", m.LeaseExpiries, m.LeaseRenewals)
	}
	upd = pattern(10, 8) // the stripe still takes read-modify-writes
	mustWrite(t, f, upd, 0)
	copy(ref, upd)
	must(t, f.Sync())
	recoverClean(t, cl, f, 0, ref)
}

// TestRetireHeldBehindRelease: head of line. An RMW's data write fails
// after its parity write landed, and its dirty release is dropped: the
// acquisition stays in flight, so the watermark stays below it, and a later
// completed RMW on another stripe with the same parity server stays pending
// behind it, heartbeat after heartbeat. Once the drop is released, the next
// tick resends the release, which fail-stops the first stripe, and the
// watermark passes the later update, retiring it.
func TestRetireHeldBehindRelease(t *testing.T) {
	c := newCluster(t, 4)
	cl := c.NewClient()
	f, err := cl.Create("hol", 4, 64, wire.Raid5)
	must(t, err)
	g := f.Geometry()
	ps := g.ParityServerOf(0)
	later := int64(1)
	for g.ParityServerOf(later) != ps {
		later++
	}
	ref := pattern(int((later+1)*g.StripeSize()), 2)
	mustWrite(t, f, ref, 0)
	p := testPolicy()
	p.LockLease = 300 * time.Millisecond // heartbeats every 100ms
	cl.SetPolicy(p)

	first, _ := g.DataUnitsOf(0)
	wd := c.Inject(FaultPoint{Server: g.ServerOf(first), Kind: wire.KWriteData, Action: FaultDrop})
	ul := c.Inject(FaultPoint{Server: ps, Kind: wire.KUnlockParity, Action: FaultDrop})
	if _, err := f.WriteAt(pattern(10, 7), 0); err == nil {
		t.Fatal("RMW succeeded despite its dropped data write")
	}
	wd.Release()
	upd := pattern(10, 8)
	off := later * g.StripeSize()
	mustWrite(t, f, upd, off)
	copy(ref[off:], upd)

	<-ul.Triggered()
	time.Sleep(3 * p.LockLease / 3)            // three ticks: each resends the release, and each is lost
	waitIntentsState(t, cl, ps, f.Ref(), 0, 2) // both still pending: the watermark is held back
	ul.Release()
	if in := waitIntentsState(t, cl, ps, f.Ref(), 1, 0); in.Stripe != 0 {
		t.Fatalf("abandoned intent = %+v, want stripe 0", in)
	}
	if st := c.Server(ps).IntentStats(); st.Retired != 1 || st.LeaseExpiries != 0 {
		t.Fatalf("server stats: %+v, want the later update retired and no expiry", st)
	}
	recoverClean(t, cl, f, 1, ref)
}

// TestRetiresUnderConcurrentWriters: writers running read-modify-writes on
// disjoint ranges from several goroutines, with a Sync racing them, retire
// every intent they open — through watermarks riding their locked reads,
// heartbeat ticks and the flushes — and leave parity consistent. With and
// without a lease.
func TestRetiresUnderConcurrentWriters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lease time.Duration
	}{{"no lease", 0}, {"leased", 600 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 4)
			cl := c.NewClient()
			f, ref := crashFile(t, c, cl, 4, wire.Raid5)
			p := testPolicy()
			p.LockLease = tc.lease
			cl.SetPolicy(p)

			const writers, rounds = 4, 48
			done := make(chan error, writers+1)
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				go func() {
					for i := 0; i < rounds; i++ {
						off := int64(w*32 + i%2*128) // stripe 0 or 1, each writer its own bytes
						if _, err := f.WriteAt(pattern(8, byte(w+i)), off); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}()
			}
			go func() {
				for {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					if err := f.Sync(); err != nil {
						done <- err
						return
					}
				}
			}()
			for w := 0; w < writers; w++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			must(t, f.Sync())

			var opened, retired int64
			for srv := 0; srv < 4; srv++ {
				st := c.Server(srv).IntentStats()
				opened, retired = opened+st.Opened, retired+st.Retired
				resp, err := cl.ServerCaller(srv).Call(&wire.ListIntents{File: f.Ref()})
				must(t, err)
				if ints := resp.(*wire.ListIntentsResp).Intents; len(ints) != 0 {
					t.Fatalf("server %d keeps intents %+v", srv, ints)
				}
			}
			beats, _ := cl.Stats().Hist("rpc_" + wire.KRenewLease.String())
			if opened != writers*rounds || retired != opened || beats.Count == 0 {
				t.Fatalf("%d intents opened, %d retired, %d watermarks sent; want %d retired", opened, retired, beats.Count, writers*rounds)
			}
			for w := 0; w < writers; w++ {
				for i := rounds - 2; i < rounds; i++ {
					copy(ref[w*32+i%2*128:], pattern(8, byte(w+i)))
				}
			}
			checkRead(t, f, ref, 0)
			rsVerifyClean(t, cl, f)
		})
	}
}
