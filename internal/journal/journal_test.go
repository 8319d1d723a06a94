package journal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"csar/internal/journal"
	"csar/internal/simdisk"
	"csar/internal/storage"
)

// store is one backing the replay rule is proven over: open returns a file
// holding b and a function reporting the file's current size.
type store struct {
	name string
	open func(t *testing.T, b []byte) (journal.File, func() int64)
}

// simFile adapts a simdisk file, which reports no errors from Truncate or
// Sync, to journal.File.
type simFile struct{ storage.File }

func (f simFile) Truncate(size int64) error { f.File.Truncate(size); return nil }
func (f simFile) Sync() error               { f.File.Sync(); return nil }

var stores = []store{
	{"os", func(t *testing.T, b []byte) (journal.File, func() int64) {
		p := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(p, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f, func() int64 {
			st, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			return st.Size()
		}
	}},
	{"simdisk", func(t *testing.T, b []byte) (journal.File, func() int64) {
		f := simdisk.New(nil, simdisk.Params{PageSize: 64}).Open("j")
		f.WriteAt(b, 0) //nolint:errcheck // in-memory disk
		return simFile{f}, f.Size
	}},
}

// open replays f and returns the log with the payloads it replayed.
func open(f journal.File, size int64) (*journal.Log, [][]byte, error) {
	var got [][]byte
	l, err := journal.Open(f, size, func(p []byte) error {
		got = append(got, p)
		return nil
	})
	return l, got, err
}

// payloads are the records of the test image: Appended as {0}, {1, 2}, {3}.
var payloads = [][]byte{
	[]byte("a"),
	bytes.Repeat([]byte{0xA5}, 300),
	[]byte("second frame of the batch"),
	{0, 0, 0, 0, 0, 0, 0, 1},
}

// image builds the test journal through a Log and returns its bytes and the
// end offset of each frame.
func image(t *testing.T) ([]byte, []int) {
	t.Helper()
	f, size := stores[1].open(t, nil)
	l, _, err := open(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][][]byte{payloads[:1], payloads[1:3], payloads[3:]} {
		if err := l.Append(batch...); err != nil {
			t.Fatal(err)
		}
	}
	img := make([]byte, size())
	f.ReadAt(img, 0) //nolint:errcheck // in-memory disk
	ends := []int{8}
	for _, p := range payloads {
		ends = append(ends, ends[len(ends)-1]+8+len(p))
	}
	if l.Size() != int64(len(img)) || ends[len(ends)-1] != len(img) {
		t.Fatalf("image is %d bytes, log says %d, frames end at %v", len(img), l.Size(), ends)
	}
	return img, ends[1:]
}

// checkReplay asserts that opening b on s replays exactly the first n
// payloads and truncates the file to their frames — zero bytes for none —
// and that a record appended afterwards replays after them.
func checkReplay(t *testing.T, s store, what string, b []byte, n int, ends []int) {
	t.Helper()
	f, size := s.open(t, b)
	l, got, err := open(f, int64(len(b)))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := 0
	if n > 0 {
		want = ends[n-1]
	}
	if !slices.EqualFunc(got, payloads[:n], bytes.Equal) || l.Size() != int64(want) || size() != int64(want) {
		t.Fatalf("%s: replayed %d records into a %d-byte log (file %d), want %d into %d",
			what, len(got), l.Size(), size(), n, want)
	}
	if err := l.Append([]byte("next")); err != nil {
		t.Fatalf("%s: append after recovery: %v", what, err)
	}
	if _, got, err = open(f, size()); err != nil || !slices.EqualFunc(got, append(payloads[:n:n], []byte("next")), bytes.Equal) {
		t.Fatalf("%s: reopen after append replayed %d records (%v), want %d", what, len(got), err, n+1)
	}
}

// TestTornTailEveryOffset cuts the journal at every byte offset, magic
// included, with and without a zero-filled tail after the cut (the blocks a
// crash extended but never wrote): recovery keeps exactly the whole frames.
func TestTornTailEveryOffset(t *testing.T) {
	img, ends := image(t)
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) {
			for off := 0; off <= len(img); off++ {
				n := 0
				for n < len(ends) && ends[n] <= off {
					n++
				}
				checkReplay(t, s, fmt.Sprintf("cut at %d", off), img[:off], n, ends)
				zeroed := append(img[:off:off], make([]byte, 20)...)
				checkReplay(t, s, fmt.Sprintf("cut at %d, zero-filled", off), zeroed, n, ends)
			}
		})
	}
}

// TestFlipEveryByte corrupts each byte of the journal in turn: a flip in a
// frame — length, checksum or payload — replays exactly the frames before
// it, and a flip in the magic refuses the file without touching it.
func TestFlipEveryByte(t *testing.T) {
	img, ends := image(t)
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) {
			for i := range img {
				bad := bytes.Clone(img)
				bad[i] ^= 0xFF
				if i < 8 {
					checkRefused(t, s, fmt.Sprintf("flip at %d", i), bad)
					continue
				}
				n := 0
				for ends[n] <= i {
					n++
				}
				checkReplay(t, s, fmt.Sprintf("flip at %d", i), bad, n, ends)
			}
		})
	}
}

// checkRefused asserts that b opens with ErrFormat and is left as it was.
func checkRefused(t *testing.T, s store, what string, b []byte) {
	t.Helper()
	f, size := s.open(t, b)
	if _, got, err := open(f, int64(len(b))); !errors.Is(err, journal.ErrFormat) || len(got) != 0 {
		t.Fatalf("%s: opened with %d records and err %v, want ErrFormat", what, len(got), err)
	}
	if size() != int64(len(b)) {
		t.Fatalf("%s: refused file was resized to %d", what, size())
	}
}

// TestLegacyFormatsRefused: the two journal formats from before the magic —
// the intent journal's u32 25 | 25-byte record and the manager WAL's
// u32 length | CRC32C | payload frames — are refused, not replayed.
func TestLegacyFormatsRefused(t *testing.T) {
	intent := append(binary.LittleEndian.AppendUint32(nil, 25), bytes.Repeat([]byte{1}, 25)...)
	rec := []byte("wal record payload")
	wal := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	wal = binary.LittleEndian.AppendUint32(wal, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
	wal = append(wal, rec...)
	for _, s := range stores {
		checkRefused(t, s, s.name+" intent journal", intent)
		checkRefused(t, s, s.name+" wal", wal)
	}
}

// TestRewrite compacts a log to a new record set and to nothing: an empty
// log is zero bytes, and either form replays to exactly what was written.
func TestRewrite(t *testing.T) {
	img, _ := image(t)
	for _, s := range stores {
		f, size := s.open(t, img)
		l, _, err := open(f, int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Rewrite(payloads[1], payloads[3]); err != nil {
			t.Fatal(err)
		}
		if _, got, err := open(f, size()); err != nil || !slices.EqualFunc(got, [][]byte{payloads[1], payloads[3]}, bytes.Equal) {
			t.Fatalf("%s: rewritten log replayed %d records (%v), want 2", s.name, len(got), err)
		}
		if err := l.Rewrite(); err != nil {
			t.Fatal(err)
		}
		if l.Size() != 0 || size() != 0 {
			t.Fatalf("%s: emptied log is %d bytes (file %d), want 0", s.name, l.Size(), size())
		}
		if err := l.Append(payloads[0]); err != nil {
			t.Fatal(err)
		}
		if _, got, err := open(f, size()); err != nil || !slices.EqualFunc(got, payloads[:1], bytes.Equal) {
			t.Fatalf("%s: append after emptying replayed %d records (%v), want 1", s.name, len(got), err)
		}
	}
}

// TestRefusals: a record the owner cannot decode fails Open instead of being
// truncated away as a torn tail, and an empty payload — which a zero-filled
// tail would imitate — panics before the file is touched.
func TestRefusals(t *testing.T) {
	img, _ := image(t)
	for _, s := range stores {
		f, size := s.open(t, img)
		boom := errors.New("undecodable")
		if _, err := journal.Open(f, size(), func([]byte) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("%s: open with a failing decoder returned %v", s.name, err)
		}
		l, _, err := open(f, size())
		if err != nil || l.Size() != int64(len(img)) {
			t.Fatalf("%s: log after a failed open: %v, %d bytes", s.name, err, l.Size())
		}
		for _, write := range []func(){
			func() { l.Append([]byte("x"), nil) }, //nolint:errcheck // panics
			func() { l.Rewrite(nil) },             //nolint:errcheck // panics
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: empty payload accepted", s.name)
					}
				}()
				write()
			}()
		}
		if size() != int64(len(img)) {
			t.Fatalf("%s: refused writes changed the file to %d bytes", s.name, size())
		}
	}
}

// syncCounter counts the Syncs a Log issues.
type syncCounter struct {
	journal.File
	syncs int
}

func (f *syncCounter) Sync() error { f.syncs++; return f.File.Sync() }

// TestAppendUnsynced: an unsynced append writes its frames like Append but
// issues no Sync; the next synced append covers them, and replay reads every
// frame in order.
func TestAppendUnsynced(t *testing.T) {
	for _, s := range stores {
		f, size := s.open(t, nil)
		sc := &syncCounter{File: f}
		l, _, err := open(sc, size())
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		must(l.AppendUnsynced(payloads[0]))
		must(l.AppendUnsynced(payloads[1], payloads[2]))
		if sc.syncs != 0 {
			t.Fatalf("%s: unsynced appends issued %d syncs", s.name, sc.syncs)
		}
		must(l.Append(payloads[3]))
		if sc.syncs != 1 {
			t.Fatalf("%s: synced append issued %d syncs, want 1", s.name, sc.syncs)
		}
		if _, got, err := open(f, size()); err != nil || !slices.EqualFunc(got, payloads, bytes.Equal) {
			t.Fatalf("%s: replayed %d records (%v), want %d", s.name, len(got), err, len(payloads))
		}
	}
}

// TestImage: Records reads back exactly the records an Image holds, and
// refuses the image cut short inside a frame or with any byte flipped. (An
// image cut at a frame boundary is the image of fewer records; the
// transport that carries an image keeps its length.)
func TestImage(t *testing.T) {
	img := journal.Image(payloads...)
	if got, err := journal.Records(img); err != nil || !slices.EqualFunc(got, payloads, bytes.Equal) {
		t.Fatalf("Records(Image) = %q, %v; want %q", got, err, payloads)
	}
	end, whole := 0, 0 // the end of the last whole frame before the cut, and the frames up to it
	for n := 1; n < len(img); n++ {
		if whole < len(payloads) && n == max(end, 8)+journal.FrameHeader+len(payloads[whole]) {
			end, whole = n, whole+1
		}
		got, err := journal.Records(img[:n])
		if n != end && err == nil || n == end && (err != nil || !slices.EqualFunc(got, payloads[:whole], bytes.Equal)) {
			t.Fatalf("image cut at byte %d of %d read as %q, %v", n, len(img), got, err)
		}
	}
	for i := range img {
		bad := bytes.Clone(img)
		bad[i] ^= 0xFF
		if got, err := journal.Records(bad); err == nil {
			t.Fatalf("image with byte %d flipped read as %q", i, got)
		}
	}
}
