package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"csar/internal/journal"
	"csar/internal/wire"
)

// buildWAL runs a canonical mutation sequence against a fresh persistent
// manager and returns its paths plus the marshaled pre-crash state.
func buildWAL(t *testing.T) (snapPath string, walPath string, wantState []byte, m *Manager) {
	t.Helper()
	snapPath = filepath.Join(t.TempDir(), "meta.json")
	m, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	cr := call(t, m, &wire.Create{Name: "alpha", Servers: 4, StripeUnit: 64, Scheme: wire.Raid5}).(*wire.CreateResp)
	call(t, m, &wire.SetSize{ID: cr.Ref.ID, Size: 4096})
	call(t, m, &wire.Create{Name: "beta", Servers: 2, StripeUnit: 128, Scheme: wire.Raid1})
	call(t, m, &wire.Create{Name: "gamma", Servers: 6, StripeUnit: 64, Scheme: wire.ReedSolomon, Parity: 2})
	call(t, m, &wire.Remove{Name: "beta"})
	call(t, m, &wire.SetSize{ID: cr.Ref.ID, Size: 65536})

	m.mu.Lock()
	wantState, err = m.marshalSnapshotLocked()
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return snapPath, snapPath + ".wal", wantState, m
}

// stateBytes marshals a manager's namespace deterministically.
func stateBytes(t *testing.T, m *Manager) []byte {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := m.marshalSnapshotLocked()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// frameEnds parses a WAL image — the journal's 8-byte magic, then frames of
// u32 length | u32 CRC32C | payload — and returns the byte offset of the end
// of each complete frame: the offsets at which a truncation loses nothing.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	const magicLen, frameHeader = 8, 8
	var ends []int
	for off := magicLen; off+frameHeader <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+frameHeader+n > len(data) {
			t.Fatalf("test WAL image itself is torn at %d", off)
		}
		off += frameHeader + n
		ends = append(ends, off)
	}
	return ends
}

// restartOnWAL writes image as the log of a fresh snapshot path and restarts a
// manager on it.
func restartOnWAL(t *testing.T, image []byte) (*Manager, string, error) {
	t.Helper()
	snapPath := filepath.Join(t.TempDir(), "meta.json")
	if err := os.WriteFile(snapPath+".wal", image, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	return m, snapPath + ".wal", err
}

// checkRecovered asserts that m replayed exactly the first recs records and
// that its log, in memory and on disk, was truncated to size bytes.
func checkRecovered(t *testing.T, what string, m *Manager, walPath string, recs, size int) {
	t.Helper()
	if m.seq != uint64(recs) {
		t.Fatalf("%s: recovered through seq %d, want %d", what, m.seq, recs)
	}
	if m.wal.Size() != int64(size) {
		t.Fatalf("%s: post-recovery size %d, want %d", what, m.wal.Size(), size)
	}
	if st, err := os.Stat(walPath); err != nil || st.Size() != int64(size) {
		t.Fatalf("%s: file not truncated to valid prefix (%v, %v)", what, st.Size(), err)
	}
}

// TestWALTornTailEveryOffset is the torn-tail property test: for a log
// truncated at EVERY byte offset, recovery must never fail or panic, must
// recover exactly the records whose frames survived whole, and must leave
// the file truncated to that valid prefix so the next append is clean.
func TestWALTornTailEveryOffset(t *testing.T) {
	_, walPath, _, src := buildWAL(t)
	src.Close()
	image, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(image) == 0 {
		t.Fatal("test needs a non-empty WAL")
	}
	ends := frameEnds(t, image)

	for off := 0; off <= len(image); off++ {
		m, p, err := restartOnWAL(t, image[:off])
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		// Complete frames up to the truncation point survive; everything
		// after the last complete frame is discarded, and a log left with no
		// whole frame is empty, magic included. Sequence numbers are the
		// contiguous prefix 1..wantRecs.
		wantRecs, wantSize := 0, 0
		for i, e := range ends {
			if e <= off {
				wantRecs, wantSize = i+1, e
			}
		}
		checkRecovered(t, fmt.Sprintf("offset %d", off), m, p, wantRecs, wantSize)
		m.Close()
	}
}

// TestWALCorruptTailBitFlip covers the CRC half of torn-tail recovery: a
// flipped bit inside the final record's payload discards exactly that
// record.
func TestWALCorruptTailBitFlip(t *testing.T) {
	_, walPath, _, src := buildWAL(t)
	src.Close()
	image, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, image)
	if len(ends) < 2 {
		t.Fatal("test needs at least two records")
	}
	image[len(image)-1] ^= 0x40 // inside the final record's payload

	m, p, err := restartOnWAL(t, image)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkRecovered(t, "flipped final record", m, p, len(ends)-1, ends[len(ends)-2])
}

// TestWALLegacyFormatRefused: a log written before the journal magic — the
// same frames with no header — is refused, not replayed, and left as it was.
func TestWALLegacyFormatRefused(t *testing.T) {
	_, walPath, _, src := buildWAL(t)
	src.Close()
	image, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	legacy := image[8:]
	if _, p, err := restartOnWAL(t, legacy); !errors.Is(err, journal.ErrFormat) {
		t.Fatalf("legacy WAL opened with err %v, want journal.ErrFormat", err)
	} else if got, _ := os.ReadFile(p); !bytes.Equal(got, legacy) {
		t.Fatal("refused WAL was modified")
	}
}

// TestWALReplayByteIdenticalState is the replay acceptance test: a manager
// restarted from snapshot + WAL — including one whose log has a torn final
// record — reproduces byte-identical namespace state to the pre-crash
// snapshot.
func TestWALReplayByteIdenticalState(t *testing.T) {
	snapPath, walPath, want, src := buildWAL(t)
	src.Close()

	m2, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := stateBytes(t, m2); !bytes.Equal(got, want) {
		t.Fatalf("replayed state differs from pre-crash state:\n got: %s\nwant: %s", got, want)
	}
	m2.Close()

	// Now tear the final record (simulate a crash mid-append of an op that
	// was never acknowledged) and add it back torn: state must equal the
	// pre-crash state MINUS that unacknowledged final op.
	image, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, image)
	cut := (ends[len(ends)-2] + ends[len(ends)-1]) / 2 // mid-final-frame
	if err := os.WriteFile(walPath, image[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	m3, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	// The torn record was the final SetSize(65536); the recovered state is
	// exactly the canonical sequence without it.
	or := call(t, m3, &wire.Open{Name: "alpha"}).(*wire.OpenResp)
	if or.Size != 4096 {
		t.Fatalf("size after torn-tail replay = %d, want 4096 (torn op dropped)", or.Size)
	}
	// And the recovered prefix state round-trips byte-identically through
	// another restart (replay is deterministic).
	want3 := stateBytes(t, m3)
	m3.Close()
	m4, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m4.Close()
	if got := stateBytes(t, m4); !bytes.Equal(got, want3) {
		t.Fatal("replay of recovered prefix is not deterministic")
	}
}

// TestWALCrashMidCompaction covers the compaction crash window: the
// snapshot has been rewritten (covering every logged op) but the crash hits
// before the log truncation. Replay must skip every record the snapshot
// already covers and reproduce identical state.
func TestWALCrashMidCompaction(t *testing.T) {
	snapPath, walPath, want, src := buildWAL(t)
	// Write the compaction snapshot but "crash" before the log truncation.
	src.mu.Lock()
	if err := src.save(); err != nil {
		src.mu.Unlock()
		t.Fatal(err)
	}
	src.mu.Unlock()
	src.Close()
	if st, err := os.Stat(walPath); err != nil || st.Size() == 0 {
		t.Fatalf("precondition: WAL should still hold records (%v, %v)", st, err)
	}

	m2, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := stateBytes(t, m2); !bytes.Equal(got, want) {
		t.Fatalf("state after crash-mid-compaction restart differs:\n got: %s\nwant: %s", got, want)
	}
	// No double-apply artifacts: exactly the two surviving names.
	lr := call(t, m2, &wire.List{}).(*wire.ListResp)
	if len(lr.Names) != 2 || lr.Names[0] != "alpha" || lr.Names[1] != "gamma" {
		t.Fatalf("names after restart = %v", lr.Names)
	}
	// New mutations append cleanly after the recovered state.
	cr := call(t, m2, &wire.Create{Name: "delta", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	if cr.Ref.ID == 0 {
		t.Fatal("bad post-recovery create")
	}
}

// TestWALCompactionTriggersAndRecovers drives enough mutations through a
// tiny compaction threshold that the log is snapshotted-and-truncated many
// times, then restarts and checks nothing was lost.
func TestWALCompactionTriggersAndRecovers(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "meta.json")
	m, err := NewPersistent(8, nil, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWALCompactBytes(1) // every commit compacts
	cr := call(t, m, &wire.Create{Name: "f", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	for i := 1; i <= 50; i++ {
		call(t, m, &wire.SetSize{ID: cr.Ref.ID, Size: int64(i * 100)})
	}
	if n := m.obs.Snapshot().Counter("meta_compactions"); n == 0 {
		t.Fatal("compaction never triggered")
	}
	want := stateBytes(t, m)
	m.Close()
	if st, err := os.Stat(snapPath + ".wal"); err != nil || st.Size() != 0 {
		t.Fatalf("WAL not empty after threshold-1 compaction (%v, %v)", st, err)
	}
	m2, err := NewPersistent(8, nil, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := stateBytes(t, m2); !bytes.Equal(got, want) {
		t.Fatal("state lost across compactions + restart")
	}
	or := call(t, m2, &wire.Open{Name: "f"}).(*wire.OpenResp)
	if or.Size != 5000 {
		t.Fatalf("size = %d, want 5000", or.Size)
	}
}
