package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"csar/internal/simdisk"
	"csar/internal/storage"
	"csar/internal/wire"
)

// Pending intents: the unlocking WriteParity releases the lock but leaves
// the intent pending until its owner retires it with RetireIntents. ref() is
// a 3-server file with 128-byte units; server 2 holds the parity of stripes
// 0, 3, 6, ...

// lockAndUnlock runs one read-modify-write's parity traffic on stripe under
// owner: the locked read, then the unlocking write of the bytes it read.
func lockAndUnlock(t *testing.T, s *Server, stripe int64, owner uint64) {
	t.Helper()
	resp := call(t, s, &wire.ReadParity{File: ref(), Stripes: []int64{stripe}, Lock: true, Owner: owner}).(*wire.ReadResp)
	call(t, s, &wire.WriteParity{File: ref(), Stripes: []int64{stripe}, Data: resp.Data, Unlock: true, Owner: owner})
}

// intentSet is the file's intents on s, sorted by stripe and owner.
func intentSet(t *testing.T, s *Server) []wire.Intent {
	t.Helper()
	in := intentsOf(t, s)
	slices.SortFunc(in, func(a, b wire.Intent) int {
		if a.Stripe != b.Stripe {
			return int(a.Stripe - b.Stripe)
		}
		return int(a.Owner) - int(b.Owner)
	})
	return in
}

// TestRetireIntentsOnlyPending: a retire takes exactly the pending intents
// it names. One whose lock is still held, one abandoned, one under another
// owner and one unknown are no-ops; the batch is counted once.
func TestRetireIntentsOnlyPending(t *testing.T) {
	s := testServer(2)
	r := ref()
	lockAndUnlock(t, s, 0, 1)                                                        // pending
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{3}, Lock: true, Owner: 2}) // open, lock held
	lockAndUnlock(t, s, 6, 3)
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{6}, Owner: 3, Dirty: true}) // abandoned

	call(t, s, &wire.RetireIntents{File: r, Intents: []wire.IntentID{
		{Stripe: 3, Owner: 2}, {Stripe: 6, Owner: 3}, {Stripe: 0, Owner: 9}, {Stripe: 9, Owner: 1},
	}})
	want := []wire.Intent{{Stripe: 0, Owner: 1}, {Stripe: 3, Owner: 2}, {Stripe: 6, Owner: 3, Abandoned: true}}
	if got := intentSet(t, s); !slices.Equal(got, want) {
		t.Fatalf("after retiring no pending intent: %+v, want %+v", got, want)
	}
	if locksHeld(s) != 1 {
		t.Fatalf("a retire touched the held lock: %d held", locksHeld(s))
	}
	call(t, s, &wire.RetireIntents{File: r, Intents: []wire.IntentID{{Stripe: 0, Owner: 1}}})
	if got := intentSet(t, s); !slices.Equal(got, want[1:]) {
		t.Fatalf("after retiring the pending intent: %+v, want %+v", got, want[1:])
	}
	if st := s.IntentStats(); st.RetireBatches != 2 || st.Retired != 1 {
		t.Fatalf("stats: %+v, want 2 batches retiring 1 intent", st)
	}
}

// TestPendingIntentAdmitsNextLocker: a pending intent does not hold the
// stripe. A second owner locks it at once, and a dirty release of the first
// owner's pending intent fail-stops the stripe for new lockers without
// revoking the lock the second owner holds. ResolveIntent of the abandoned
// intent is refused while the second owner's intent is live — open, then
// pending — and succeeds once it is retired.
func TestPendingIntentAdmitsNextLocker(t *testing.T) {
	s := testServer(2)
	r := ref()
	lockAndUnlock(t, s, 0, 1)
	if err := handleWithin(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 2}); err != nil {
		t.Fatalf("lock behind a pending intent: %v", err)
	}
	call(t, s, &wire.UnlockParity{File: r, Stripes: []int64{0}, Owner: 1, Dirty: true})
	want := []wire.Intent{{Stripe: 0, Owner: 1, Abandoned: true}, {Stripe: 0, Owner: 2}}
	if got := intentSet(t, s); !slices.Equal(got, want) || locksHeld(s) != 1 {
		t.Fatalf("after the dirty release: intents %+v, %d locks held; want %+v, 1", got, locksHeld(s), want)
	}
	if err := handleWithin(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Owner: 3}); !errors.Is(err, wire.ErrStripeTorn) {
		t.Fatalf("lock of a stripe with an abandoned intent: %v, want ErrStripeTorn", err)
	}

	resolve := &wire.ResolveIntent{File: r, Stripe: 0, Owner: 1, Data: make([]byte, 128)}
	if _, err := s.Handle(resolve); err == nil {
		t.Fatal("resolve accepted while another owner holds the stripe's lock")
	}
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{0}, Data: make([]byte, 128), Unlock: true, Owner: 2})
	if _, err := s.Handle(resolve); err == nil {
		t.Fatal("resolve accepted while another owner's intent is pending")
	}
	call(t, s, &wire.RetireIntents{File: r, Intents: []wire.IntentID{{Stripe: 0, Owner: 2}}})
	call(t, s, resolve)
	if got := intentSet(t, s); len(got) != 0 {
		t.Fatalf("intents after resolve: %+v", got)
	}
}

// TestIntentJournalStaysSmall: 10,000 open → unlock → batched-retire cycles
// with two intents always pending never drain the live set, so the journal
// only stays small by compacting: its two logs together must stay under
// twice intentJournalCompactBytes throughout. A restart mid-stream reloads exactly
// the live set, every intent abandoned.
func TestIntentJournalStaysSmall(t *testing.T) {
	const cycles, batch = 10000, 4
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 2)
	r := ref()
	logs := []storage.File{disk.Open(intentJournalName), disk.Open(intentJournalName + ".1")}
	var pending []wire.IntentID
	maxSize := int64(0)
	for i := 0; i < cycles; i++ {
		id := wire.IntentID{Stripe: int64(3 * (i % 8)), Owner: uint64(i + 1)}
		lockAndUnlock(t, s, id.Stripe, id.Owner)
		pending = append(pending, id)
		if len(pending) == 2+batch {
			call(t, s, &wire.RetireIntents{File: r, Intents: pending[:batch]})
			pending = append(pending[:0], pending[batch:]...)
		}
		maxSize = max(maxSize, logs[0].Size()+logs[1].Size())
		if i == cycles/2 {
			restarted, refused := reload(disk, 2)
			if refused != nil {
				t.Fatal(refused)
			}
			got := slices.Clone(restarted.pendingIntents[r.ID])
			slices.SortFunc(got, func(a, b wire.IntentID) int { return int(a.Owner) - int(b.Owner) })
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
			for _, id := range pending {
				call(t, s, &wire.ResolveIntent{File: r, Stripe: id.Stripe, Owner: id.Owner, Data: make([]byte, 128)})
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
	var cuts []compactionCut[[]wire.IntentID]
	disk := compactionDisk[[]wire.IntentID]{simdisk.New(nil, simdisk.Params{PageSize: 64}), intentJournalName, func() []wire.IntentID {
		var live []wire.IntentID
		for k := range s.jLive {
			live = append(live, wire.IntentID{Stripe: k.stripe, Owner: k.owner})
		}
		return live
	}, &cuts, nil}
	s, _ = reload(disk, 2)
	r := ref()
	var pending []wire.IntentID
	for i := 0; len(cuts) < 3; i++ {
		id := wire.IntentID{Stripe: int64(3 * (i % 8)), Owner: uint64(i + 1)}
		lockAndUnlock(t, s, id.Stripe, id.Owner)
		pending = append(pending, id)
		if len(pending) == 6 {
			call(t, s, &wire.RetireIntents{File: r, Intents: pending[:4]})
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
		slices.SortFunc(cut.live, func(a, b wire.IntentID) int { return int(a.Owner) - int(b.Owner) })
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
			slices.SortFunc(got, func(a, b wire.IntentID) int { return int(a.Owner) - int(b.Owner) })
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

	call(t, s, &wire.RetireIntents{File: r, Intents: pending})
	if a, b := journalImage(disk, intentJournalName), journalImage(disk, intentJournalName+".1"); len(a)+len(b) != 0 {
		t.Fatalf("drained journal holds %d and %d bytes", len(a), len(b))
	}
}
