package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"csar/internal/journal"
	"csar/internal/raid"
	"csar/internal/simdisk"
	"csar/internal/storage"
	"csar/internal/wire"
)

// reload starts a server on disk. A journal New refuses to read makes it
// panic; the panic value comes back as refused.
func reload(disk storage.Backend, idx int) (s *Server, refused any) {
	defer func() { refused = recover() }()
	opts := DefaultOptions()
	opts.PageSize = 64
	return New(idx, disk, opts), nil
}

// journalImage returns the bytes of the named journal on disk.
func journalImage(disk storage.Backend, name string) []byte {
	f := disk.Open(name)
	b := make([]byte, f.Size())
	f.ReadAt(b, 0) //nolint:errcheck // in-memory disk
	return b
}

// flipEachByte reloads a server from every single-byte corruption of image,
// stored as the named journal. unwritten reports state the reload holds that
// was never written ("" for none); kept reports whether the reload holds
// exactly the frames before the flipped one. A flip in the journal's magic
// must instead be refused, naming the file.
func flipEachByte(t *testing.T, name string, image []byte, frameLen, idx int,
	unwritten func(s *Server) string, kept func(s *Server, frames int) bool) {
	t.Helper()
	for i := range image {
		disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
		bad := bytes.Clone(image)
		bad[i] ^= 0xFF
		disk.Open(name).WriteAt(bad, 0) //nolint:errcheck // in-memory disk
		s, refused := reload(disk, idx)
		switch {
		case refused == nil && unwritten(s) != "":
			t.Errorf("byte %d flipped: reload holds %s, which was never written", i, unwritten(s))
		case i < 8 && !strings.Contains(fmt.Sprint(refused), name):
			t.Errorf("byte %d flipped: corrupt magic not refused naming %s (panic: %v)", i, name, refused)
		case i >= 8 && refused != nil:
			t.Errorf("byte %d flipped: reload refused: %v", i, refused)
		case i >= 8 && !kept(s, (i-8)/frameLen):
			t.Errorf("byte %d flipped: reload did not keep exactly the %d frames before it", i, (i-8)/frameLen)
		}
	}
}

// TestIntentJournalBitFlip flips every byte of a two-record intent journal
// and reloads: the server must never come back with an intent nobody opened.
// A flip inside a record drops it and every record after it.
func TestIntentJournalBitFlip(t *testing.T) {
	r := ref()
	g := raid.Geometry{Servers: int(r.Servers), StripeUnit: int64(r.StripeUnit)}
	var stripes []int64 // two stripes whose parity server 2 holds
	for st := int64(0); len(stripes) < 2; st++ {
		if _, ok := g.ParityUnitOn(2, st); ok {
			stripes = append(stripes, st)
		}
	}
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 2)
	call(t, s, &wire.ReadParity{File: r, Stripes: stripes, Lock: true, Session: 7, Seq: 1})
	image := journalImage(disk, intentJournalName)

	unwritten := func(s *Server) string {
		for id, live := range s.pendingIntents {
			for _, in := range live {
				if id != r.ID || in.acq != (acq{7, 1}) || (in.stripe != stripes[0] && in.stripe != stripes[1]) {
					return fmt.Sprintf("an intent on file %d stripe %d of %+v", id, in.stripe, in.acq)
				}
			}
		}
		return ""
	}
	kept := func(s *Server, frames int) bool {
		live := s.pendingIntents[r.ID]
		return len(s.pendingIntents) == min(frames, 1) && len(live) == frames &&
			(frames == 0 || slices.Contains(live, intentKey{r.ID, stripes[0], acq{7, 1}}))
	}
	flipEachByte(t, intentJournalName, image, 8+intentEntryLen, 2, unwritten, kept)
}

// TestDirtyLogBitFlip flips every byte of a two-record dirty journal (an
// epoch sighting, then one group) and reloads: the server must never come
// back with a dirty log, epoch or item that was not written.
func TestDirtyLogBitFlip(t *testing.T) {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 0)
	call(t, s, &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 7, Groups: []int64{3}})
	image := journalImage(disk, dirtyJournalName)

	want := dirtyKey{ref().ID, 1}
	unwritten := func(s *Server) string {
		for k, dl := range s.dirty.logs {
			_, group := dl.groups[3]
			_, epoch := dl.epochs[7]
			if k != want || len(dl.epochs) != 1 || !epoch || len(dl.groups) > 1 || len(dl.groups) == 1 && !group {
				return fmt.Sprintf("log %+v: epochs %v groups %v", k, dl.epochs, dl.groups)
			}
		}
		return ""
	}
	kept := func(s *Server, frames int) bool {
		dl := s.dirty.logs[want]
		return len(s.dirty.logs) == frames && (dl == nil || len(dl.groups) == 0)
	}
	flipEachByte(t, dirtyJournalName, image, 8+27, 0, unwritten, kept)
}

// TestLegacyIntentJournalRefused: an intents.journal New must not misread
// makes it panic naming the file instead of replaying it — one from before
// the journal format (u32 record length 25, then the record, no checksum),
// and a framed one from before sessions, whose 25-byte records name one
// owner token where a record now names a session and a seq.
func TestLegacyIntentJournalRefused(t *testing.T) {
	record := []byte{intentOpOpen}
	record = binary.LittleEndian.AppendUint64(record, ref().ID)
	record = binary.LittleEndian.AppendUint64(record, 2) // stripe
	record = binary.LittleEndian.AppendUint64(record, 7) // owner
	for _, tc := range []struct {
		name  string
		image []byte
	}{
		{"unframed", append(binary.LittleEndian.AppendUint32(nil, 25), record...)},
		{"owner records", journal.Image(record)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
			disk.Open(intentJournalName).WriteAt(tc.image, 0) //nolint:errcheck // in-memory disk

			_, refused := reload(disk, 2)
			err, _ := refused.(error)
			if !errors.Is(err, journal.ErrFormat) || !strings.Contains(err.Error(), intentJournalName) {
				t.Fatalf("legacy journal: New panicked with %v, want journal.ErrFormat naming %s", refused, intentJournalName)
			}
		})
	}
}

// dirtyPicture is s's dirty logs as a reload keeps them, without the
// generations the journal does not hold: per (file, dead) key its epochs
// and groups (overflowGroup for the overflow stores), sorted.
func dirtyPicture(s *Server) map[dirtyKey]string {
	out := make(map[dirtyKey]string)
	for k, dl := range s.dirty.logs {
		var epochs []uint64
		for ep := range dl.epochs {
			epochs = append(epochs, ep)
		}
		slices.Sort(epochs)
		var groups []int64
		for g := range dl.groups {
			groups = append(groups, g)
		}
		slices.Sort(groups)
		out[k] = fmt.Sprint(epochs, groups)
	}
	return out
}

// dirtyEntries is s's dirty logs as sets of their entries: per (file,
// dead) key, "epoch N" for each epoch and "group N" for each group.
func dirtyEntries(s *Server) map[dirtyKey]map[string]bool {
	out := make(map[dirtyKey]map[string]bool)
	for k, dl := range s.dirty.logs {
		set := make(map[string]bool)
		for ep := range dl.epochs {
			set[fmt.Sprint("epoch ", ep)] = true
		}
		for g := range dl.groups {
			set[fmt.Sprint("group ", g)] = true
		}
		out[k] = set
	}
	return out
}

// TestDirtyJournalCompactionCrash cuts every kind of dirty-journal write at
// every byte. The clears append, one record per entry or log they retire,
// and compact nothing, since the journal is below its floor: a partial
// ClearDirty of two groups and the overflow stores (three records), a
// ClearDirty{All}, a RemoveFile of two logs (two records) and a clear that
// drains one log. A cut inside such an append may reload a log with only
// some of its entries retired, so each cut is checked entry by entry: every
// epoch and group of every reloaded log was in that log before the
// operation or is in it after it, nothing the operation left dirty is
// lost, and the logs it does not name come back as they were; the cut
// before the append reloads exactly the logs before it, the whole append
// exactly those after. The compactions the pair's rule then calls for under
// a mark/clear churn are cut at every byte of their sealed write, both
// ways, and after the log they replace is truncated: each cut reloads
// exactly the live logs. Last, the clear that drains the last log empties
// the journal and writes nothing.
func TestDirtyJournalCompactionCrash(t *testing.T) {
	var s *Server
	var cuts []compactionCut[map[dirtyKey]string]
	disk := compactionDisk[map[dirtyKey]string]{simdisk.New(nil, simdisk.Params{PageSize: 64}), dirtyJournalName,
		func() map[dirtyKey]string { return dirtyPicture(s) }, &cuts, nil}
	s, _ = reload(disk, 0)
	file := func(id uint64) wire.FileRef { r := ref(); r.ID = id; return r }
	a, b, c, d := file(1), file(2), file(3), file(4)
	for _, m := range []*wire.MarkDirty{
		{File: b, Dead: 1, Epoch: 11, Groups: []int64{0, 3, 6}},
		{File: a, Dead: 1, Epoch: 21, Groups: []int64{1, 4, 2, 5}, Overflow: true},
		{File: a, Dead: 1, Epoch: 22, Groups: []int64{7}},
		{File: a, Dead: 2, Epoch: 23, Groups: []int64{8}},
		{File: c, Dead: 1, Epoch: 31, Groups: []int64{9}},
		{File: c, Dead: 2, Epoch: 32, Groups: []int64{10}},
	} {
		call(t, s, m)
	}
	dump := func(f wire.FileRef, dead uint16) *wire.DirtyDumpResp {
		return call(t, s, &wire.DirtyDump{File: f, Dead: dead}).(*wire.DirtyDumpResp)
	}
	clearAll := func(f wire.FileRef, dead uint16) wire.Msg {
		d := dump(f, dead)
		return &wire.ClearDirty{File: f, Dead: dead, Groups: d.Groups, Overflow: d.Overflow, OverflowGen: d.OverflowGen}
	}
	reloaded := func(what string, images [2][]byte) *Server {
		t.Helper()
		d := simdisk.New(nil, simdisk.Params{PageSize: 64})
		for i, name := range pairNames(dirtyJournalName) {
			d.Open(name).WriteAt(images[i], 0) //nolint:errcheck // in-memory disk
		}
		restarted, refused := reload(d, 0)
		if refused != nil {
			t.Fatalf("%s: reload refused: %v", what, refused)
		}
		return restarted
	}
	crash := func(what string, images [2][]byte, want map[dirtyKey]string) {
		t.Helper()
		if got := dirtyPicture(reloaded(what, images)); !maps.Equal(got, want) {
			t.Fatalf("%s: reloaded %v, want %v", what, got, want)
		}
	}
	steps := []struct {
		what    string
		op      func() wire.Msg
		keys    []dirtyKey // the logs the operation changes
		records int        // the records it appends
	}{
		{"partial ClearDirty", func() wire.Msg {
			d := dump(a, 1)
			return &wire.ClearDirty{File: a, Dead: 1, Groups: d.Groups[:2], Overflow: true, OverflowGen: d.OverflowGen}
		}, []dirtyKey{{1, 1}}, 3},
		{"ClearDirty{All}", func() wire.Msg { return &wire.ClearDirty{File: a, Dead: 2, All: true} }, []dirtyKey{{1, 2}}, 1},
		{"RemoveFile", func() wire.Msg { return &wire.RemoveFile{File: c} }, []dirtyKey{{3, 1}, {3, 2}}, 2},
		{"clear draining a log", func() wire.Msg { return clearAll(a, 1) }, []dirtyKey{{1, 1}}, 1},
	}
	for _, st := range steps {
		op := st.op()
		before, old, oldEntries := pairImages(disk, dirtyJournalName), dirtyPicture(s), dirtyEntries(s)
		call(t, s, op)
		after, now, nowEntries := pairImages(disk, dirtyJournalName), dirtyPicture(s), dirtyEntries(s)
		for k := range old {
			if !slices.Contains(st.keys, k) && old[k] != now[k] {
				t.Fatalf("%s changed log %+v, which it does not name", st.what, k)
			}
		}
		if len(cuts) != 0 || len(before[1]) != 0 || len(after[1]) != 0 || !bytes.HasPrefix(after[0], before[0]) ||
			len(after[0])-len(before[0]) != st.records*(journal.FrameHeader+dirtyEntryLen) {
			t.Fatalf("%s: %d compactions, logs went from %d and %d bytes to %d and %d; want %d records appended to the first log",
				st.what, len(cuts), len(before[0]), len(before[1]), len(after[0]), len(after[1]), st.records)
		}
		torn := 0 // cuts that reload a log neither as it was nor as it is
		for n := len(before[0]); n <= len(after[0]); n++ {
			what := fmt.Sprintf("%s cut at byte %d of %d", st.what, n-len(before[0]), len(after[0])-len(before[0]))
			restarted := reloaded(what, [2][]byte{after[0][:n], nil})
			got, gotEntries := dirtyPicture(restarted), dirtyEntries(restarted)
			switch {
			case n == len(before[0]) && !maps.Equal(got, old), n == len(after[0]) && !maps.Equal(got, now):
				t.Fatalf("%s: reloaded %v, want %v before and %v after", what, got, old, now)
			}
			for k, entries := range gotEntries {
				for e := range entries {
					if !oldEntries[k][e] && !nowEntries[k][e] {
						t.Fatalf("%s: reloaded log %+v with %s, in it neither before (%v) nor after (%v)", what, k, e, old[k], now[k])
					}
				}
				if got[k] != old[k] && got[k] != now[k] {
					torn++
				}
			}
			for k, entries := range nowEntries {
				for e := range entries {
					if !gotEntries[k][e] {
						t.Fatalf("%s: reloaded log %+v as %q, without its %s, which stays dirty", what, k, got[k], e)
					}
				}
			}
		}
		if len(st.keys) == 1 && st.records > 1 && torn == 0 {
			t.Fatalf("%s: no cut reloaded its log with only some of its %d records", st.what, st.records)
		}
	}

	// Churn one more log, marking a group and retiring it, until the pair
	// has compacted into each log once.
	for i := 0; len(cuts) < 2; i++ {
		if i == 10000 {
			t.Fatalf("%d mark/clear cycles made %d compactions, want 2", i, len(cuts))
		}
		call(t, s, &wire.MarkDirty{File: d, Dead: 1, Epoch: 41, Groups: []int64{int64(i % 8)}})
		call(t, s, clearAll(d, 1))
		if imgs := pairImages(disk, dirtyJournalName); len(imgs[0]) > 0 && len(imgs[1]) > 0 {
			t.Fatalf("cycle %d: both logs hold records (%d and %d bytes)", i, len(imgs[0]), len(imgs[1]))
		}
	}
	for i, cut := range cuts {
		if cut.into != 1-i {
			t.Fatalf("compaction %d went into log %d, want %d", i, cut.into, 1-i)
		}
		for n := 0; n <= len(cut.write); n++ {
			images := cut.before
			images[cut.into] = cut.write[:n]
			crash(fmt.Sprintf("compaction %d cut at byte %d of %d", i, n, len(cut.write)), images, cut.live)
		}
		images := cut.before
		images[cut.into], images[1-cut.into] = cut.write, nil
		crash(fmt.Sprintf("compaction %d, replaced log truncated", i), images, cut.live)
	}

	// The clear that drains the last log empties the journal outright.
	before, old := pairImages(disk, dirtyJournalName), dirtyPicture(s)
	caught := len(cuts)
	call(t, s, clearAll(b, 1))
	if after := pairImages(disk, dirtyJournalName); len(cuts) != caught || (len(before[0]) > 0) == (len(before[1]) > 0) || len(after[0])+len(after[1]) != 0 {
		t.Fatalf("clear draining the last log: %d sealed writes, logs went from %d and %d bytes to %d and %d; want none, from one log to none",
			len(cuts)-caught, len(before[0]), len(before[1]), len(after[0]), len(after[1]))
	}
	crash("clear draining the last log, before", before, old)
	crash("clear draining the last log, after", pairImages(disk, dirtyJournalName), map[dirtyKey]string{})
	if len(s.dirty.logs) != 0 || s.dirty.live != 0 {
		t.Fatalf("after the last clear: logs %v, %d live records", dirtyPicture(s), s.dirty.live)
	}
}

// TestRemoveFileAfterRestart: a RemoveFile that is the first request for a
// file after a restart removes its stores and retires the intents the
// restart parked for it. Both intent logs end empty, and the next restart
// reloads no intent.
func TestRemoveFileAfterRestart(t *testing.T) {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 2)
	r := ref()
	call(t, s, &wire.WriteData{File: r, Spans: []wire.Span{{Off: 256, Len: 128}}, Data: make([]byte, 128)}) // unit 2, server 2's
	call(t, s, &wire.WriteParity{File: r, Stripes: []int64{3}, Data: make([]byte, 128)})
	call(t, s, &wire.ReadParity{File: r, Stripes: []int64{0}, Lock: true, Session: 7, Seq: 1})
	s, _ = reload(disk, 2)
	if got := s.pendingIntents[r.ID]; len(got) != 1 {
		t.Fatalf("restart parked %+v, want the one open intent", got)
	}

	call(t, s, &wire.RemoveFile{File: r})
	if got := disk.TotalBytes(); got != 0 {
		t.Fatalf("%d bytes remain after RemoveFile", got)
	}
	for _, name := range pairNames(intentJournalName) {
		if img := journalImage(disk, name); len(img) != 0 {
			t.Fatalf("%s holds %d bytes after RemoveFile", name, len(img))
		}
	}
	if len(s.jLive)+len(s.pendingIntents) != 0 {
		t.Fatalf("after RemoveFile: live intents %v, parked %v", s.jLive, s.pendingIntents)
	}
	s, _ = reload(disk, 2)
	if len(s.jLive)+len(s.pendingIntents) != 0 || s.IntentStats().Abandoned != 0 {
		t.Fatalf("next restart reloaded live intents %v, parked %v", s.jLive, s.pendingIntents)
	}
}

// TestDirtyJournalUnknownKind reloads a dirty journal holding a record of a
// kind the loader does not know — the unit (2), mirror (3) and stripe (4)
// records of the format before group records, and a kind no format used.
// The damage it names is not invented as a group; the log instead comes
// back poisoned with epoch 0, which sends its outage's resync to a full
// rebuild, and a compaction of the log keeps the poison.
func TestDirtyJournalUnknownKind(t *testing.T) {
	for _, kind := range []uint8{2, 3, 4, 0x7f} {
		t.Run(fmt.Sprint("kind ", kind), func(t *testing.T) {
			disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
			s, _ := reload(disk, 0)
			call(t, s, &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 7, Groups: []int64{3, 4}})
			if err := s.dirty.journal.Append(true, dirtyRecord(kind, dirtyKey{ref().ID, 1}, 7, 5)); err != nil {
				t.Fatal(err)
			}
			check := func(what string, epochs, groups []int64) {
				t.Helper()
				s, _ = reload(disk, 0)
				d := call(t, s, &wire.DirtyDump{File: ref(), Dead: 1}).(*wire.DirtyDumpResp)
				var gotEpochs, gotGroups []int64
				for _, ep := range d.Epochs {
					gotEpochs = append(gotEpochs, int64(ep))
				}
				for _, it := range d.Groups {
					gotGroups = append(gotGroups, it.Group)
				}
				if !slices.Equal(gotEpochs, epochs) || !slices.Equal(gotGroups, groups) {
					t.Fatalf("%s: epochs %v groups %v, want %v %v", what, gotEpochs, gotGroups, epochs, groups)
				}
			}
			check("reload", []int64{0, 7}, []int64{3, 4})
			d := call(t, s, &wire.DirtyDump{File: ref(), Dead: 1}).(*wire.DirtyDumpResp)
			call(t, s, &wire.ClearDirty{File: ref(), Dead: 1, Groups: d.Groups[:1]})
			s.dirty.mu.Lock()
			s.compactDirtyLocked()
			s.dirty.mu.Unlock()
			check("reload after a compaction", []int64{0, 7}, []int64{4})
		})
	}
}

// TestDirtyLogRefusesUnresolvableRef: MarkDirty refuses a ref raid.Resolve
// refuses — here a Reed-Solomon layout with no parity units — like every
// other request, and journals nothing.
func TestDirtyLogRefusesUnresolvableRef(t *testing.T) {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 0)
	bad := wire.FileRef{ID: 1, Servers: 6, StripeUnit: 128, Scheme: wire.ReedSolomon}
	if _, err := s.Handle(&wire.MarkDirty{File: bad, Dead: 1, Epoch: 7, Groups: []int64{3}}); err == nil {
		t.Fatal("MarkDirty of an RS ref with 0 parity units was accepted")
	}
	if imgs := pairImages(disk, dirtyJournalName); len(imgs[0])+len(imgs[1]) != 0 {
		t.Fatalf("refused MarkDirty journaled %d and %d bytes", len(imgs[0]), len(imgs[1]))
	}
	if len(s.dirty.logs) != 0 {
		t.Fatalf("refused MarkDirty left logs %v", dirtyPicture(s))
	}
}

// TestDirtyLogRefusesForeignGroup: MarkDirty refuses a group in which the
// dead server holds no member — a negative stripe of a RAID5 file, a RAID1
// unit whose copies are both on other servers — even beside a group it does
// hold and a new epoch, and the log and its journal stay as they were.
func TestDirtyLogRefusesForeignGroup(t *testing.T) {
	raid1 := wire.FileRef{ID: 3, Servers: 5, StripeUnit: 128, Scheme: wire.Raid1}
	l, err := raid.Resolve(raid1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := l.GroupMember(3, 0).Server, l.GroupMember(3, 1).Server; a != 3 || b != 4 {
		t.Fatalf("raid1 unit 3 is on servers %d and %d, want 3 and 4", a, b)
	}
	for _, tc := range []struct {
		name        string
		file        wire.FileRef
		held, alien int64
	}{
		{"raid5-negative", wire.FileRef{ID: 2, Servers: 5, StripeUnit: 128, Scheme: wire.Raid5}, 2, -1},
		{"raid1-other-servers", raid1, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
			s, _ := reload(disk, 0)
			call(t, s, &wire.MarkDirty{File: tc.file, Dead: 1, Epoch: 7, Groups: []int64{tc.held}})
			imgs := pairImages(disk, dirtyJournalName)
			dump := call(t, s, &wire.DirtyDump{File: tc.file, Dead: 1}).(*wire.DirtyDumpResp)
			bad := &wire.MarkDirty{File: tc.file, Dead: 1, Epoch: 8, Groups: []int64{tc.held, tc.alien}}
			if _, err := s.Handle(bad); err == nil {
				t.Fatalf("MarkDirty of group %d for dead server 1 was accepted", tc.alien)
			}
			if got := pairImages(disk, dirtyJournalName); !bytes.Equal(got[0], imgs[0]) || !bytes.Equal(got[1], imgs[1]) {
				t.Fatalf("refused MarkDirty changed the journal: %d and %d bytes, were %d and %d",
					len(got[0]), len(got[1]), len(imgs[0]), len(imgs[1]))
			}
			after := call(t, s, &wire.DirtyDump{File: tc.file, Dead: 1}).(*wire.DirtyDumpResp)
			if fmt.Sprint(after) != fmt.Sprint(dump) {
				t.Fatalf("refused MarkDirty changed the dump: %v, was %v", after, dump)
			}
		})
	}
}

// TestDirtyJournalClearOfNothing: a ClearDirty that retires nothing — every
// group it lists was re-dirtied since its dump, or is not logged — makes no
// journal write or sync, and the log keeps its group.
func TestDirtyJournalClearOfNothing(t *testing.T) {
	var cuts []compactionCut[map[dirtyKey]string]
	calls := 0
	disk := compactionDisk[map[dirtyKey]string]{simdisk.New(nil, simdisk.Params{PageSize: 64}), dirtyJournalName,
		func() map[dirtyKey]string { return nil }, &cuts, &calls}
	s, _ := reload(disk, 0)
	mark := &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 7, Groups: []int64{3}}
	call(t, s, mark)
	stale := call(t, s, &wire.DirtyDump{File: ref(), Dead: 1}).(*wire.DirtyDumpResp)
	call(t, s, mark)
	calls = 0
	call(t, s, &wire.ClearDirty{File: ref(), Dead: 1, Groups: append(stale.Groups, wire.DirtyItem{Group: 9, Gen: 1})})
	if calls != 0 || len(cuts) != 0 {
		t.Fatalf("a clear retiring nothing made %d journal writes and syncs (%d compactions)", calls, len(cuts))
	}
	if d := call(t, s, &wire.DirtyDump{File: ref(), Dead: 1}).(*wire.DirtyDumpResp); len(d.Groups) != 1 {
		t.Fatalf("after the clear: groups %v, want group 3", d.Groups)
	}
}

// TestDirtyJournalClearCostIndependentOfLogs: a ClearDirty that retires one
// group of one log, below the compaction floor, writes one clear record and
// syncs at most once, whatever else the journal holds: the bytes it writes
// are the same beside 1, 8 or 64 other (file, dead) logs, and none of them
// is rewritten.
func TestDirtyJournalClearCostIndependentOfLogs(t *testing.T) {
	var written []byte
	for _, others := range []int{1, 8, 64} {
		var cuts []compactionCut[map[dirtyKey]string]
		calls := 0
		disk := compactionDisk[map[dirtyKey]string]{simdisk.New(nil, simdisk.Params{PageSize: 64}), dirtyJournalName,
			func() map[dirtyKey]string { return nil }, &cuts, &calls}
		s, _ := reload(disk, 0)
		for i := 0; i < others; i++ {
			r := ref()
			r.ID = uint64(100 + i)
			call(t, s, &wire.MarkDirty{File: r, Dead: uint16(1 + i%2), Epoch: 7, Groups: []int64{0, 3}})
		}
		call(t, s, &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 9, Groups: []int64{3, 6}})
		d := call(t, s, &wire.DirtyDump{File: ref(), Dead: 1}).(*wire.DirtyDumpResp)
		before := pairImages(disk, dirtyJournalName)
		calls = 0
		call(t, s, &wire.ClearDirty{File: ref(), Dead: 1, Groups: d.Groups[:1]})
		after := pairImages(disk, dirtyJournalName)
		if len(cuts) != 0 || calls > 2 || len(before[1])+len(after[1]) != 0 || !bytes.HasPrefix(after[0], before[0]) {
			t.Fatalf("beside %d logs: the clear made %d compactions and %d writes and syncs, logs went from %d and %d bytes to %d and %d",
				others, len(cuts), calls, len(before[0]), len(before[1]), len(after[0]), len(after[1]))
		}
		got := after[0][len(before[0]):]
		if len(got) != journal.FrameHeader+dirtyEntryLen || written != nil && !bytes.Equal(got, written) {
			t.Fatalf("beside %d logs the clear wrote %x, want one record %x", others, got, written)
		}
		written = got
	}
}
