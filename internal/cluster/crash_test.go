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

// This file is the deterministic crash-consistency suite for the RAID5
// write-hole closure: a client that dies mid-read-modify-write, a parity
// server that dies before its unlocking parity write lands, and a stalled
// but live client whose heartbeat must keep its lease alive. Every scenario
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
				File: f.Ref(), Stripes: []int64{0}, Lock: true, Owner: token, LeaseMS: 40, Ranges: ranges,
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

			// The lease expires with no heartbeat: the intent goes abandoned.
			in := waitIntent(t, cl, ps, f.Ref(), true)
			if in.Stripe != 0 || in.Owner != token {
				t.Fatalf("abandoned intent = %+v, want stripe 0 owner %d", in, token)
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

// TestCrashServerMidParityWrite: under the crash-safe RMW ordering the data
// writes land, then the parity server dies before the unlocking parity
// write (and the client's dirty compensation) can reach it. After restart
// the journal must resurrect the intent as abandoned, and replay must
// install parity matching the new data.
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
	p.LockLease = 10 * time.Second
	p.LeaseRenewEvery = -1 // no heartbeat: nothing to renew in this scenario
	p.CrashSafeRMW = true
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

	// The crash-safe ordering means the failed RMW's data DID land: reads
	// see it, and the stripe takes writes again.
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
	p.Retries = 2 // the hung read must succeed on its post-release retry
	p.LockLease = 500 * time.Millisecond
	p.LeaseRenewEvery = 25 * time.Millisecond
	p.CrashSafeRMW = true
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
