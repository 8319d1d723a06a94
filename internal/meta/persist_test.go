package meta

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csar/internal/wire"
)

func TestPersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	m1, err := NewPersistent(4, []string{"a:1"}, path)
	if err != nil {
		t.Fatal(err)
	}
	cr := call(t, m1, &wire.Create{Name: "f", Servers: 3, StripeUnit: 64, Scheme: wire.Hybrid}).(*wire.CreateResp)
	call(t, m1, &wire.SetSize{ID: cr.Ref.ID, Size: 12345})
	call(t, m1, &wire.Create{Name: "g", Servers: 2, StripeUnit: 128, Scheme: wire.Raid1})
	call(t, m1, &wire.Remove{Name: "g"})

	// "Restart" the manager from its WAL.
	m2, err := NewPersistent(4, []string{"a:1"}, path)
	if err != nil {
		t.Fatal(err)
	}
	or := call(t, m2, &wire.Open{Name: "f"}).(*wire.OpenResp)
	if or.Ref != cr.Ref {
		t.Fatalf("ref after restart = %+v, want %+v", or.Ref, cr.Ref)
	}
	if or.Size != 12345 {
		t.Fatalf("size after restart = %d", or.Size)
	}
	if _, err := m2.Handle(&wire.Open{Name: "g"}); err == nil {
		t.Fatal("removed file resurrected by restart")
	}
	// New IDs must not collide with pre-restart ones.
	cr2 := call(t, m2, &wire.Create{Name: "h", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0}).(*wire.CreateResp)
	if cr2.Ref.ID == cr.Ref.ID {
		t.Fatal("file ID reused after restart")
	}
}

// TestPersistenceCorruptSnapshotRejected: a file at the manager's base path
// is a JSON snapshot of the format before the WAL pair held the whole state
// — corrupt or well-formed, it is refused with an error naming it, not read
// and not ignored, and left as it was.
func TestPersistenceCorruptSnapshotRejected(t *testing.T) {
	for _, snap := range []string{"{not json", `{"epoch": 1, "seq": 2, "next_id": 2, "files": [{"name": "f", "id": 1}]}`} {
		path := filepath.Join(t.TempDir(), "meta.json")
		if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewPersistent(4, nil, path); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("snapshot %q: NewPersistent returned %v, want an error naming %s", snap, err, path)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != snap {
			t.Fatalf("refused snapshot changed: %q, %v", got, err)
		}
	}
}

func TestPersistenceMissingSnapshotStartsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	m, err := NewPersistent(4, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	lr := call(t, m, &wire.List{}).(*wire.ListResp)
	if len(lr.Names) != 0 {
		t.Fatalf("names = %v", lr.Names)
	}
}

func TestNonPersistentManagerUnaffected(t *testing.T) {
	m := New(4, nil)
	call(t, m, &wire.Create{Name: "x", Servers: 2, StripeUnit: 64, Scheme: wire.Raid0})
	// No snapshot path: nothing written anywhere, no errors.
}
