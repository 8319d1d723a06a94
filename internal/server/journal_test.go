package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	call(t, s, &wire.ReadParity{File: r, Stripes: stripes, Lock: true, Owner: 7})
	image := journalImage(disk, intentJournalName)

	unwritten := func(s *Server) string {
		for id, live := range s.pendingIntents {
			for _, in := range live {
				if id != r.ID || in.Owner != 7 || (in.Stripe != stripes[0] && in.Stripe != stripes[1]) {
					return fmt.Sprintf("an intent on file %d stripe %d owner %d", id, in.Stripe, in.Owner)
				}
			}
		}
		return ""
	}
	kept := func(s *Server, frames int) bool {
		live := s.pendingIntents[r.ID]
		return len(s.pendingIntents) == min(frames, 1) && len(live) == frames &&
			(frames == 0 || slices.Contains(live, wire.IntentID{Stripe: stripes[0], Owner: 7}))
	}
	flipEachByte(t, intentJournalName, image, 8+25, 2, unwritten, kept)
}

// TestDirtyLogBitFlip flips every byte of a two-record dirty journal (an
// epoch sighting, then one unit) and reloads: the server must never come
// back with a dirty log, epoch or item that was not written.
func TestDirtyLogBitFlip(t *testing.T) {
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	s, _ := reload(disk, 0)
	call(t, s, &wire.MarkDirty{File: ref(), Dead: 1, Epoch: 7, Units: []int64{3}})
	image := journalImage(disk, dirtyJournalName)

	want := dirtyKey{ref().ID, 1}
	unwritten := func(s *Server) string {
		for k, dl := range s.dirty.logs {
			_, unit := dl.units[3]
			_, epoch := dl.epochs[7]
			if k != want || len(dl.epochs) != 1 || !epoch || len(dl.units) > 1 || len(dl.units) == 1 && !unit ||
				len(dl.mirrors)+len(dl.stripes) != 0 || dl.overflow {
				return fmt.Sprintf("log %+v: epochs %v units %v mirrors %v stripes %v overflow %v",
					k, dl.epochs, dl.units, dl.mirrors, dl.stripes, dl.overflow)
			}
		}
		return ""
	}
	kept := func(s *Server, frames int) bool {
		dl := s.dirty.logs[want]
		return len(s.dirty.logs) == frames && (dl == nil || len(dl.units) == 0)
	}
	flipEachByte(t, dirtyJournalName, image, 8+27, 0, unwritten, kept)
}

// TestLegacyIntentJournalRefused: an intents.journal from before the journal
// format — u32 record length 25, then the record, no checksum — makes New
// panic naming the file instead of replaying it.
func TestLegacyIntentJournalRefused(t *testing.T) {
	legacy := binary.LittleEndian.AppendUint32(nil, 25)
	legacy = append(legacy, intentOpOpen)
	legacy = binary.LittleEndian.AppendUint64(legacy, ref().ID)
	legacy = binary.LittleEndian.AppendUint64(legacy, 2) // stripe
	legacy = binary.LittleEndian.AppendUint64(legacy, 7) // owner
	disk := simdisk.New(nil, simdisk.Params{PageSize: 64})
	disk.Open(intentJournalName).WriteAt(legacy, 0) //nolint:errcheck // in-memory disk

	_, refused := reload(disk, 2)
	err, _ := refused.(error)
	if !errors.Is(err, journal.ErrFormat) || !strings.Contains(err.Error(), intentJournalName) {
		t.Fatalf("legacy journal: New panicked with %v, want journal.ErrFormat naming %s", refused, intentJournalName)
	}
}
