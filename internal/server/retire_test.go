package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"csar/internal/simdisk"
	"csar/internal/storage"
	"csar/internal/wire"
)

// Pending intents and sessions: the unlocking WriteParity releases the lock
// but leaves the intent pending until its session's watermark passes it.
// ref() is a 3-server file with 128-byte units; server 2 holds the parity of
// stripes 0, 3, 6, ...

// lockAndUnlock runs one read-modify-write's parity traffic on stripe under
// acquisition (session, seq): the locked read, then the unlocking write of
// the bytes it read.
func lockAndUnlock(t *testing.T, s *Server, stripe int64, session, seq uint64) {
	t.Helper()
	resp := call(t, s, &wire.ReadParity{File: ref(), Stripes: []int64{stripe}, Lock: true, Session: session, Seq: seq}).(*wire.ReadResp)
	call(t, s, &wire.WriteParity{File: ref(), Stripes: []int64{stripe}, Data: resp.Data, Unlock: true, Session: session, Seq: seq})
}

// intentSet is the file's intents on s, sorted by stripe, session and seq.
func intentSet(t *testing.T, s *Server) []wire.Intent {
	t.Helper()
	in := intentsOf(t, s)
	slices.SortFunc(in, func(a, b wire.Intent) int {
		return cmp.Or(cmp.Compare(a.Stripe, b.Stripe), cmp.Compare(a.Session, b.Session), cmp.Compare(a.Seq, b.Seq))
	})
	return in
}

// TestRetireWatermarkOnlyPending: a session's watermark W retires exactly
// its pending intents at or below W, whether it rides a heartbeat or a
// locked read; a pending intent at or below W is never live once W is
// applied. An open intent (its lock still held), an abandoned one, one above
// W and another session's are untouched, and a session left with no live
// intent and no lease holds no state.
func TestRetireWatermarkOnlyPending(t *testing.T) {
	// Session 1: seq 1 pending on stripe 0, seq 2 open on stripe 3, seq 3
	// abandoned on stripe 6, seq 4 pending on stripe 9. Session 2: seq 1
	// pending on stripe 12.
	all := []wire.Intent{
		{Stripe: 0, Session: 1, Seq: 1}, {Stripe: 3, Session: 1, Seq: 2},
		{Stripe: 6, Session: 1, Seq: 3, Abandoned: true}, {Stripe: 9, Session: 1, Seq: 4},
		{Stripe: 12, Session: 2, Seq: 1},
	}
	for _, tc := range []struct {
		name    string
		apply   wire.Msg
		retired []int // indexes into all
	}{
		{"heartbeat below every pending", &wire.RenewLease{Session: 1}, nil},
		{"heartbeat at the first pending", &wire.RenewLease{Session: 1, Watermark: 1}, []int{0}},
		{"heartbeat past the open and abandoned", &wire.RenewLease{Session: 1, Watermark: 3}, []int{0}},
		{"heartbeat past all", &wire.RenewLease{Session: 1, Watermark: 9}, []int{0, 3}},
		{"another session's watermark", &wire.RenewLease{Session: 2, Watermark: 0}, nil},
		{"another session's high watermark", &wire.RenewLease{Session: 3, Watermark: 9}, nil},
		{"locked read's watermark", &wire.ReadParity{File: ref(), Stripes: []int64{15}, Lock: true, Session: 1, Seq: 5, Watermark: 4}, []int{0, 3}},
		{"session 2 drains", &wire.RenewLease{Session: 2, Watermark: 1}, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testServer(2)
			r := ref()
			lockAndUnlock(t, s, 0, 1, 1)
			call(t, s, &wire.ReadParity{File: r, Stripes: []int64{3}, Lock: true, Session: 1, Seq: 2})
			lockAndUnlock(t, s, 6, 1, 3)
			call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{6}, Session: 1, Seq: 3, Dirty: true})
			lockAndUnlock(t, s, 9, 1, 4)
			lockAndUnlock(t, s, 12, 2, 1)

			call(t, s, tc.apply)
			var want []wire.Intent
			for i, in := range all {
				if !slices.Contains(tc.retired, i) {
					want = append(want, in)
				}
			}
			locks := int64(1)                              // stripe 3's, held by its open intent
			if rp, ok := tc.apply.(*wire.ReadParity); ok { // its own new intent, and lock
				want = append(want, wire.Intent{Stripe: 15, Session: rp.Session, Seq: rp.Seq})
				locks++
			}
			if got := intentSet(t, s); !slices.Equal(got, want) {
				t.Fatalf("after %+v: %+v, want %+v", tc.apply, got, want)
			}
			if locksHeld(s) != locks {
				t.Fatalf("after %+v: %d locks held, want %d", tc.apply, locksHeld(s), locks)
			}
			if st := s.IntentStats(); st.Retired != int64(len(tc.retired)) || st.Abandoned != 1 {
				t.Fatalf("stats: %+v, want %d retired", st, len(tc.retired))
			}
			if _, held := s.sessions[2]; held != !slices.Contains(tc.retired, 4) {
				t.Fatalf("session 2 holds state: %v, with its pending intent retired: %v", held, !held)
			}
		})
	}
}

// TestPendingIntentAdmitsNextLocker: a pending intent does not hold the
// stripe. A second session locks it at once, and a dirty release of the
// first session's pending intent fail-stops the stripe for new lockers
// without revoking the lock the second session holds. ResolveIntent of the
// abandoned intent is refused while the second session's intent is live —
// open, then pending — and succeeds once its watermark retires it.
func TestPendingIntentAdmitsNextLocker(t *testing.T) {
	s := testServer(2)
	r := ref()
	lockAndUnlock(t, s, 0, 1, 1)
	if err := handleWithin(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 2, Seq: 1}); err != nil {
		t.Fatalf("lock behind a pending intent: %v", err)
	}
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Session: 1, Seq: 1, Dirty: true})
	want := []wire.Intent{{Stripe: 0, Session: 1, Seq: 1, Abandoned: true}, {Stripe: 0, Session: 2, Seq: 1}}
	if got := intentSet(t, s); !slices.Equal(got, want) || locksHeld(s) != 1 {
		t.Fatalf("after the dirty release: intents %+v, %d locks held; want %+v, 1", got, locksHeld(s), want)
	}
	if err := handleWithin(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 3, Seq: 1}); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("lock of a stripe with an abandoned intent: %v, want ErrStripeTorn", err)
	}

	resolve := &wire.ResolveIntent{File: r, Stripe: 0, Session: 1, Seq: 1, Data: make([]byte, 128)}
	if _, err := s.Handle(resolve); err == nil {
		t.Fatal("resolve accepted while another session holds the stripe's lock")
	}
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Session: 2, Seq: 1})
	if _, err := s.Handle(resolve); err == nil {
		t.Fatal("resolve accepted while another session's intent is pending")
	}
	call(t, s, &wire.RenewLease{Session: 2, Watermark: 1})
	call(t, s, resolve)
	if got := intentSet(t, s); len(got) != 0 {
		t.Fatalf("intents after resolve: %+v", got)
	}
}

// TestSessionExpiresOnOneTimer: a session with intents on two files and
// several stripes — open, pending, and one acquisition still queued —
// expires on its one timer and abandons them all: the locks its open
// intents hold are revoked and their queues woken canceled, and the
// session's late frames are refused. Another session is untouched, and a
// restarted server knows no session at all.
func TestSessionExpiresOnOneTimer(t *testing.T) {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 2)
	r := ref()
	r2 := r
	r2.ID = 2
	const lease = 40
	lockAndUnlock(t, s, 0, 1, 1) // pending, under a session with no lease yet
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{3, 6}, Lock: true, Session: 1, Seq: 2, LeaseMS: lease})
	call(t, s, &wire.ReadParity{File: r2, Stripes: []int64{0}, Lock: true, Session: 1, Seq: 3, LeaseMS: lease})
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{9}, Lock: true, Session: 2, Seq: 1}) // no lease
	queued := make(chan error, 1)
	go func() {
		_, err := s.Handle(&wire.ReadParity{File: r2, Stripes: []int64{0}, Lock: true, Session: 2, Seq: 2})
		queued <- err
	}()
	s.imu.Lock()
	ss := s.sessions[1]
	timed := len(s.sessions) == 2 && ss.timer != nil && len(ss.live) == 4 && s.sessions[2].timer == nil
	s.imu.Unlock()
	if !timed {
		t.Fatal("want two sessions, only the leased one with a timer, holding its four intents")
	}

	select {
	case err := <-queued:
		if err == nil {
			t.Fatal("a read queued behind the expired session's lock was granted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the expired session's lock was never revoked")
	}
	want := []wire.Intent{
		{Stripe: 0, Session: 1, Seq: 1, Abandoned: true}, {Stripe: 3, Session: 1, Seq: 2, Abandoned: true},
		{Stripe: 6, Session: 1, Seq: 2, Abandoned: true}, {Stripe: 9, Session: 2, Seq: 1},
	}
	if got := intentSet(t, s); !slices.Equal(got, want) {
		t.Fatalf("after the expiry: %+v, want %+v", got, want)
	}
	in2 := call(t, s, &wire.ListIntents{File: r2}).(*wire.ListIntentsResp).Intents
	if len(in2) != 1 || !in2[0].Abandoned || in2[0].Session != 1 {
		t.Fatalf("the second file's intents after the expiry: %+v", in2)
	}
	if st := s.IntentStats(); st.LeaseExpiries != 1 || st.Abandoned != 4 || locksHeld(s) != 1 {
		t.Fatalf("after the expiry: %+v and %d locks held, want 1 expiry, 4 abandoned, 1 held", st, locksHeld(s))
	}
	_, err := s.Handle(&wire.ReadParity{File: r, Stripes: []int64{12}, Lock: true, Session: 1, Seq: 4, LeaseMS: lease})
	if !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("locked read of the expired session: %v, want ErrLeaseExpired", err)
	}
	_, err = s.Handle(&wire.WriteParity{File: r, Stripes: []int64{3}, Data: make([]byte, 128), Unlock: true, Session: 1, Seq: 2})
	if !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("late unlocking write of the expired session: %v, want ErrLeaseExpired", err)
	}
	if rr := call(t, s, &wire.RenewLease{Session: 1, LeaseMS: lease}).(*wire.RenewLeaseResp); rr.Live {
		t.Fatal("the expired session's heartbeat was answered live")
	}
	if rr := call(t, s, &wire.RenewLease{Session: 2, LeaseMS: lease}).(*wire.RenewLeaseResp); !rr.Live {
		t.Fatal("the other session's heartbeat was answered not live")
	}

	restarted, _ := reload(disk, 2)
	if rr := call(t, restarted, &wire.RenewLease{Session: 2, LeaseMS: lease}).(*wire.RenewLeaseResp); rr.Live {
		t.Fatal("a restarted server answered a session it never knew live")
	}
	for _, in := range intentsOf(t, restarted) {
		if !in.Abandoned {
			t.Fatalf("restart reloaded a live intent: %+v", in)
		}
	}
}

// TestIntentJournalStaysSmall: 10,000 open → unlock → watermark cycles
// with two intents always pending never drain the live set, so the journal
// only stays small by compacting: its two logs together must stay under
// twice intentJournalCompactBytes throughout. A restart mid-stream reloads
// exactly the live set, every intent abandoned.
func TestIntentJournalStaysSmall(t *testing.T) {
	const cycles, batch = 10000, 4
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 2)
	r := ref()
	logs := []storage.File{disk.Open(intentJournalName), disk.Open(intentJournalName + ".1")}
	var pending []intentKey
	maxSize := int64(0)
	for i := 0; i < cycles; i++ {
		k := intentKey{r.ID, int64(3 * (i % 8)), acq{1, uint64(i + 1)}}
		lockAndUnlock(t, s, k.stripe, k.session, k.seq)
		pending = append(pending, k)
		if len(pending) == 2+batch {
			call(t, s, &wire.RenewLease{Session: 1, Watermark: pending[batch-1].seq})
			pending = append(pending[:0], pending[batch:]...)
		}
		maxSize = max(maxSize, logs[0].Size()+logs[1].Size())
		if i == cycles/2 {
			restarted, refused := reload(disk, 2)
			if refused != nil {
				t.Fatal(refused)
			}
			got := slices.Clone(restarted.pendingIntents[r.ID])
			slices.SortFunc(got, func(a, b intentKey) int { return cmp.Compare(a.seq, b.seq) })
			if len(restarted.pendingIntents) != 1 || !slices.Equal(got, pending) {
				t.Fatalf("restart at cycle %d reloaded %+v, want the live set %+v", i, restarted.pendingIntents, pending)
			}
			for _, in := range intentsOf(t, restarted) {
				if !in.Abandoned {
					t.Fatalf("restart reloaded a live intent: %+v", in)
				}
			}
			// The crashed instance is gone; replay clears the stripes the
			// restart fail-stopped, and the stream goes on.
			s = restarted
			for _, k := range pending {
				call(t, s, &wire.ResolveIntent{File: r, Stripe: k.stripe, Session: k.session, Seq: k.seq, Data: make([]byte, 128)})
			}
			pending = pending[:0]
		}
	}
	if maxSize >= 2*intentJournalCompactBytes {
		t.Fatalf("journal grew to %d bytes, want under %d", maxSize, 2*intentJournalCompactBytes)
	}
	if maxSize < intentJournalCompactBytes/2 {
		t.Fatalf("journal peaked at %d bytes: the cycles never neared compaction", maxSize)
	}
}

// compactionDisk catches the compactions of the named journal pair: the
// write that puts a sealed copy of the live set into one of its logs. At
// each it saves what a crash could leave behind, and live's picture of the
// owner's live set. If calls is set it counts every WriteAt and Sync on
// the pair's logs.
type compactionDisk[L any] struct {
	storage.Backend
	name  string
	live  func() L
	cuts  *[]compactionCut[L]
	calls *int
}

// compactionCut is the journal as one compaction found it: both logs'
// images just before its sealed write, that write, and the live set.
type compactionCut[L any] struct {
	before [2][]byte
	into   int
	write  []byte
	live   L
}

type compactionFile[L any] struct {
	storage.File
	d    compactionDisk[L]
	slot int
}

// pairNames are the two logs of the journal pair name.
func pairNames(name string) [2]string { return [2]string{name, name + ".1"} }

// pairImages returns the bytes of both logs of the journal pair name.
func pairImages(disk storage.Backend, name string) [2][]byte {
	n := pairNames(name)
	return [2][]byte{journalImage(disk, n[0]), journalImage(disk, n[1])}
}

func (d compactionDisk[L]) Open(name string) storage.File {
	f := d.Backend.Open(name)
	for i, n := range pairNames(d.name) {
		if name == n {
			return compactionFile[L]{f, d, i}
		}
	}
	return f
}

// sealed reports whether p ends in a seal frame: u32 length 9 | u32 CRC32C
// | u8 4 | u64 generation.
func sealed(p []byte) bool {
	n := len(p) - 8 - 9
	return n >= 0 && binary.LittleEndian.Uint32(p[n:]) == 9 && p[n+8] == 4
}

func (f compactionFile[L]) Sync() {
	f.count()
	f.File.Sync()
}

func (f compactionFile[L]) count() {
	if f.d.calls != nil {
		*f.d.calls++
	}
}

func (f compactionFile[L]) WriteAt(p []byte, off int64) (int, error) {
	f.count()
	if off == 0 && sealed(p) {
		*f.d.cuts = append(*f.d.cuts, compactionCut[L]{
			before: pairImages(f.d.Backend, f.d.name), into: f.slot, write: bytes.Clone(p), live: f.d.live(),
		})
	}
	return f.File.WriteAt(p, off)
}

// TestIntentJournalCompactionCrash: a crash anywhere inside a compaction —
// before its sealed write, torn at any byte of it, after it but before the
// log it replaces is truncated, or after — reloads exactly the live set.
// Compactions both ways (intents.journal into intents.journal.1 and back)
// are cut. Outside a compaction one log is always empty, and when the live
// set drains both are.
func TestIntentJournalCompactionCrash(t *testing.T) {
	var s *Server
	var cuts []compactionCut[[]intentKey]
	disk := compactionDisk[[]intentKey]{simdisk.New(nil, simdisk.Params{PageSize: 64}), intentJournalName, func() []intentKey {
		var live []intentKey
		for k := range s.jLive {
			live = append(live, k)
		}
		return live
	}, &cuts, nil}
	s, _ = reload(disk, 2)
	r := ref()
	var pending []intentKey
	for i := 0; len(cuts) < 3; i++ {
		k := intentKey{r.ID, int64(3 * (i % 8)), acq{1, uint64(i + 1)}}
		lockAndUnlock(t, s, k.stripe, k.session, k.seq)
		pending = append(pending, k)
		if len(pending) == 6 {
			call(t, s, &wire.RenewLease{Session: 1, Watermark: pending[3].seq})
			pending = append(pending[:0], pending[4:]...)
		}
		if a, b := journalImage(disk, intentJournalName), journalImage(disk, intentJournalName+".1"); len(a) > 0 && len(b) > 0 {
			t.Fatalf("cycle %d: both logs hold records (%d and %d bytes)", i, len(a), len(b))
		}
	}
	if cuts[0].into != 1 || cuts[1].into != 0 {
		t.Fatalf("compactions went into logs %d then %d, want 1 then 0", cuts[0].into, cuts[1].into)
	}
	for ci, cut := range cuts[:2] {
		slices.SortFunc(cut.live, func(a, b intentKey) int { return cmp.Compare(a.seq, b.seq) })
		crash := func(what string, images [2][]byte) {
			t.Helper()
			d := simdisk.New(nil, simdisk.Params{PageSize: 64})
			for i, name := range pairNames(intentJournalName) {
				d.Open(name).WriteAt(images[i], 0) //nolint:errcheck // in-memory disk
			}
			restarted, refused := reload(d, 2)
			if refused != nil {
				t.Fatalf("compaction %d, %s: reload refused: %v", ci, what, refused)
			}
			got := slices.Clone(restarted.pendingIntents[r.ID])
			slices.SortFunc(got, func(a, b intentKey) int { return cmp.Compare(a.seq, b.seq) })
			if !slices.Equal(got, cut.live) {
				t.Fatalf("compaction %d, %s: reloaded %+v, want the live set %+v", ci, what, got, cut.live)
			}
		}
		for n := 0; n <= len(cut.write); n++ {
			images := cut.before
			images[cut.into] = cut.write[:n]
			crash("torn write", images)
		}
		images := cut.before
		images[cut.into] = cut.write
		images[1-cut.into] = nil
		crash("replaced log truncated", images)
	}

	call(t, s, &wire.RenewLease{Session: 1, Watermark: pending[len(pending)-1].seq})
	if a, b := journalImage(disk, intentJournalName), journalImage(disk, intentJournalName+".1"); len(a)+len(b) != 0 {
		t.Fatalf("drained journal holds %d and %d bytes", len(a), len(b))
	}
}
