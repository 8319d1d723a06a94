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
// manager and returns its paths plus its encoded pre-crash state.
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

	return snapPath, snapPath + ".wal", stateBytes(t, m), m
}

// stateBytes is a manager's state — epoch, seq, next file ID and every file
// — as the records a compaction writes, in the image a snapshot carries.
func stateBytes(t *testing.T, m *Manager) []byte {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	return journal.Image(m.stateRecsLocked()...)
}

// walImages reads both logs of the WAL pair at base path.
func walImages(t *testing.T, path string) [2][]byte {
	t.Helper()
	var imgs [2][]byte
	for i, name := range [2]string{path + ".wal", path + ".wal.1"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = b
	}
	return imgs
}

// restartOnImages writes imgs as the two logs of a fresh base path and
// restarts a manager on them.
func restartOnImages(t *testing.T, imgs [2][]byte) *Manager {
	t.Helper()
	path := filepath.Join(t.TempDir(), "meta")
	for i, name := range [2]string{path + ".wal", path + ".wal.1"} {
		if err := os.WriteFile(name, imgs[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewPersistent(8, []string{"a:1", "b:2"}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// compactNow compacts m's WAL to its live state, whatever the pair's rule
// says.
func compactNow(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.wal.Compact(m.stateRecsLocked()...); err != nil {
		t.Fatal(err)
	}
}

// checkCuts restarts a manager on every cut of the sealed write that took
// the WAL pair from before to after — each prefix of the log it wrote, with
// the other log as it was, then the other log truncated — and asserts each
// restart holds the state old or, once the whole write is down, the state
// now.
func checkCuts(t *testing.T, what string, before, after [2][]byte, old, now []byte) {
	t.Helper()
	into := 1
	if len(after[0]) > 0 {
		into = 0
	}
	if len(after[1-into]) != 0 || len(after[into]) == 0 {
		t.Fatalf("%s: logs are %d and %d bytes, want one sealed log", what, len(after[0]), len(after[1]))
	}
	for n := 0; n <= len(after[into]); n++ {
		imgs := before
		imgs[into] = after[into][:n]
		want := old
		if n == len(after[into]) {
			want = now
		}
		if got := stateBytes(t, restartOnImages(t, imgs)); !bytes.Equal(got, want) {
			t.Fatalf("%s cut at byte %d of %d: restarted state\n%x\nwant\n%x", what, n, len(after[into]), got, want)
		}
	}
	if got := stateBytes(t, restartOnImages(t, after)); !bytes.Equal(got, now) {
		t.Fatalf("%s, replaced log truncated: restarted state\n%x\nwant\n%x", what, got, now)
	}
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
// restarted from its WAL — including one whose log has a torn final record
// — reproduces byte-identical state to the pre-crash state.
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

// TestWALCrashMidCompaction covers the compaction's last crash window: the
// sealed copy of the live state is down in the pair's other log, but the
// crash hits before the log it replaces is truncated. The restart must take
// the sealed copy alone — no record of the old log applied twice — leave
// the old log empty, and append new mutations cleanly after it.
func TestWALCrashMidCompaction(t *testing.T) {
	snapPath, walPath, want, src := buildWAL(t)
	old := walImages(t, snapPath)
	compactNow(t, src)
	src.Close()
	sealed := walImages(t, snapPath)
	if len(sealed[0]) != 0 || len(sealed[1]) == 0 {
		t.Fatalf("precondition: the compaction should move the WAL into its second log (%d and %d bytes)", len(sealed[0]), len(sealed[1]))
	}
	for i, img := range [2][]byte{old[0], sealed[1]} {
		if err := os.WriteFile([2]string{walPath, walPath + ".1"}[i], img, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := NewPersistent(8, []string{"a:1", "b:2"}, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := stateBytes(t, m2); !bytes.Equal(got, want) {
		t.Fatalf("state after crash-mid-compaction restart differs:\n got: %x\nwant: %x", got, want)
	}
	// No double-apply artifacts: exactly the two surviving names.
	lr := call(t, m2, &wire.List{}).(*wire.ListResp)
	if len(lr.Names) != 2 || lr.Names[0] != "alpha" || lr.Names[1] != "gamma" {
		t.Fatalf("names after restart = %v", lr.Names)
	}
	if imgs := walImages(t, snapPath); len(imgs[0]) != 0 || !bytes.Equal(imgs[1], sealed[1]) {
		t.Fatalf("after restart the logs are %d and %d bytes, want the superseded one emptied", len(imgs[0]), len(imgs[1]))
	}
	// New mutations append cleanly after the recovered state.
	cr := call(t, m2, &wire.Create{Name: "delta", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	if cr.Ref.ID == 0 {
		t.Fatal("bad post-recovery create")
	}
}

// TestManagerCompactionCrash cuts manager compactions, into the WAL's second
// log and back, at every byte of their sealed write and after the log they
// replace is truncated: a compaction does not change the state, so every
// cut restarts to exactly the state before it, epoch, seq and next file ID
// included. Records appended after a compaction replay with its copy.
func TestManagerCompactionCrash(t *testing.T) {
	snapPath, _, _, m := buildWAL(t)
	defer m.Close()
	call(t, m, &wire.SetScheme{ID: 1, Scheme: wire.Raid1})
	for i, more := range []wire.Msg{
		&wire.Create{Name: "delta", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0},
		&wire.Remove{Name: "alpha"},
	} {
		want := stateBytes(t, m)
		before := walImages(t, snapPath)
		compactNow(t, m)
		checkCuts(t, fmt.Sprintf("compaction %d", i), before, walImages(t, snapPath), want, want)
		call(t, m, more)
	}
	if got := stateBytes(t, restartOnImages(t, walImages(t, snapPath))); !bytes.Equal(got, stateBytes(t, m)) {
		t.Fatal("records appended after a compaction did not replay with it")
	}
}

// TestReplicatedSnapshotInstallCrash: a standby whose WAL holds a divergent
// history — epoch 1 up to seq 6 — installs the new primary's snapshot at
// epoch 2, seq 3. The install is one sealed write, cut here at every byte
// and after the log it replaces is truncated: each restart holds the whole
// old state or the whole installed one, never a mix of the two histories,
// and never an epoch below the one the standby acknowledged.
func TestReplicatedSnapshotInstallCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta")
	standby, err := NewPersistent(8, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	for _, msg := range []wire.Msg{
		&wire.Create{Name: "alpha", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0},
		&wire.Create{Name: "beta", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0},
		&wire.Remove{Name: "alpha"},
		&wire.Create{Name: "gamma", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0},
		&wire.SetSize{ID: 3, Size: 100},
		&wire.Remove{Name: "beta"},
	} {
		call(t, standby, msg)
	}
	primary := New(8, nil)
	if err := primary.Promote(); err != nil {
		t.Fatal(err)
	}
	cr := call(t, primary, &wire.Create{Name: "zeta", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	call(t, primary, &wire.SetSize{ID: cr.Ref.ID, Size: 7})
	old, now := stateBytes(t, standby), stateBytes(t, primary)
	if st := mgrStatus(t, standby); st.Epoch != 1 || st.Seq != 6 {
		t.Fatalf("precondition: standby at %+v, want epoch 1 seq 6", st)
	}
	if st := mgrStatus(t, primary); st.Epoch != 2 || st.Seq != 3 {
		t.Fatalf("precondition: primary at %+v, want epoch 2 seq 3", st)
	}

	before := walImages(t, path)
	call(t, standby, &wire.MetaReplicate{Epoch: 2, Seq: 3, Snap: true, Rec: now})
	if got := stateBytes(t, standby); !bytes.Equal(got, now) {
		t.Fatalf("installed state\n%x\nwant the primary's\n%x", got, now)
	}
	checkCuts(t, "install", before, walImages(t, path), old, now)
	lr := call(t, primary, &wire.List{}).(*wire.ListResp)
	if len(lr.Names) != 1 || lr.Names[0] != "zeta" {
		t.Fatalf("primary names = %v", lr.Names)
	}
}

// TestWALCompactionTriggersAndRecovers drives mutations through a floor of
// one byte, so the pair's rule alone decides when the log compacts, then
// restarts and checks nothing was lost and the WAL stayed within the rule's
// bound: one log empty, the other no larger than twice the live state.
func TestWALCompactionTriggersAndRecovers(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "meta")
	m, err := NewPersistent(8, nil, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWALCompactBytes(1)
	cr := call(t, m, &wire.Create{Name: "f", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	for i := 1; i <= 50; i++ {
		call(t, m, &wire.SetSize{ID: cr.Ref.ID, Size: int64(i * 100)})
	}
	if n := m.obs.Snapshot().Counter("meta_compactions"); n < 5 {
		t.Fatalf("%d compactions in 50 commits of a one-file namespace, want at least 5", n)
	}
	want := stateBytes(t, m)
	m.mu.Lock()
	live := stateRecLen + m.fileBytes
	m.mu.Unlock()
	m.Close()
	if imgs := walImages(t, snapPath); len(imgs[0]) > 0 == (len(imgs[1]) > 0) || int64(len(imgs[0])+len(imgs[1])) > 2*live {
		t.Fatalf("WAL logs are %d and %d bytes, want one empty and the other at most %d", len(imgs[0]), len(imgs[1]), 2*live)
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
