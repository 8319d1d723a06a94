package storage_test

import (
	"bytes"
	"testing"

	"csar/internal/server"
	"csar/internal/storage"
	"csar/internal/wire"
)

func newDir(t *testing.T) *storage.Dir {
	t.Helper()
	d, err := storage.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDirRoundTrip(t *testing.T) {
	d := newDir(t)
	f := d.Open("data")
	msg := []byte("persistent bytes")
	if _, err := f.WriteAt(msg, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if f.Size() != int64(100+len(msg)) {
		t.Fatalf("size=%d", f.Size())
	}
	if f.Name() != "data" {
		t.Fatalf("name=%q", f.Name())
	}
}

func TestDirHolesReadZero(t *testing.T) {
	d := newDir(t)
	f := d.Open("sparse")
	f.WriteAt([]byte{7}, 1_000_000)
	got := make([]byte, 10)
	if _, err := f.ReadAt(got, 500); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	// Beyond EOF also zero-fills, like the modeled disk.
	if _, err := f.ReadAt(got, 2_000_000); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("EOF read not zero")
		}
	}
}

func TestDirSparseAllocation(t *testing.T) {
	d := newDir(t)
	f := d.Open("sparse")
	f.WriteAt([]byte{1}, 10<<20) // 10 MB hole
	f.Sync()
	if f.Size() <= 10<<20 {
		t.Fatalf("size=%d", f.Size())
	}
	if alloc := f.Allocated(); alloc >= 10<<20 {
		t.Fatalf("hole materialized: allocated=%d", alloc)
	}
}

func TestDirPersistsAcrossReopen(t *testing.T) {
	root := t.TempDir()
	d1, err := storage.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	d1.Open("a").WriteAt([]byte("hello"), 0)
	d1.SyncAll()

	d2, err := storage.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	names := d2.FileNames()
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("names=%v", names)
	}
	got := make([]byte, 5)
	d2.Open("a").ReadAt(got, 0)
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestDirRemoveAndTruncate(t *testing.T) {
	d := newDir(t)
	f := d.Open("x")
	f.WriteAt(bytes.Repeat([]byte{1}, 100), 0)
	f.Truncate(10)
	if f.Size() != 10 {
		t.Fatalf("size=%d", f.Size())
	}
	d.Remove("x")
	if len(d.FileNames()) != 0 {
		t.Fatal("file survives remove")
	}
	if n := d.TotalBytes(); n != 0 {
		t.Fatalf("TotalBytes=%d", n)
	}
}

// TestServerOnDirBackend runs the full I/O daemon against the durable
// backend: the same tests the simdisk backend passes.
func TestServerOnDirBackend(t *testing.T) {
	d := newDir(t)
	opts := server.DefaultOptions()
	opts.PageSize = 64
	s := server.New(0, d, opts)
	r := wire.FileRef{ID: 1, Servers: 3, StripeUnit: 128, Scheme: wire.Hybrid}

	payload := bytes.Repeat([]byte{0xCD}, 128)
	if _, err := s.Handle(&wire.WriteData{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}, Data: payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(&wire.WriteData{
		File: r, Store: wire.StoreOverflow, Spans: []wire.Span{{Off: 5, Len: 20}}, Data: bytes.Repeat([]byte{0xEE}, 20),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Handle(&wire.Read{File: r, Spans: []wire.Span{{Off: 0, Len: 128}}})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.(*wire.ReadResp).Data
	for i := 0; i < 128; i++ {
		want := byte(0xCD)
		if i >= 5 && i < 25 {
			want = 0xEE
		}
		if got[i] != want {
			t.Fatalf("byte %d = %x want %x", i, got[i], want)
		}
	}
	if _, err := s.Handle(&wire.Sync{File: r}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Handle(&wire.StorageStat{FileID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.(*wire.StorageStatResp).Total == 0 {
		t.Fatal("no storage accounted on dir backend")
	}
}
