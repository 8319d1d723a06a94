package simdisk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestDifferentialAgainstScanReference drives Disk and the scan-based
// reference with the same seeded operation sequences — several files, page
// sizes, bounded and unbounded caches — and demands identical bytes, Stats,
// allocation and modeled positioning time after every step. The page table,
// the intrusive LRU and the per-file dirty sets are bookkeeping only: no
// modeled quantity may notice them.
func TestDifferentialAgainstScanReference(t *testing.T) {
	names := []string{"data", "parity", "journal"}
	for _, ps := range []int{16, 100, 4096} {
		for _, cachePages := range []int64{0, 1, 7, 200} {
			for seed := int64(1); seed <= 6; seed++ {
				p := Params{
					PageSize:   ps,
					CacheBytes: cachePages * int64(ps),
					SeekTime:   9 * time.Millisecond,
					ReadBW:     70e6,
					WriteBW:    70e6,
				}
				label := fmt.Sprintf("ps=%d cache=%d seed=%d", ps, cachePages, seed)
				r := rand.New(rand.NewSource(seed))
				d := New(nil, p)
				ref := newRefDisk(p)
				// Mostly a dense working set, so pages are revisited, with
				// the odd far offset for holes and long seeks.
				offset := func() int64 {
					if r.Intn(8) == 0 {
						return int64(r.Intn(2000 * ps))
					}
					return int64(r.Intn(40 * ps))
				}
				for step := 0; step < 400; step++ {
					name := names[r.Intn(len(names))]
					f, rf := d.OpenFile(name), ref.open(name)
					what := ""
					switch op := r.Intn(20); {
					case op < 7:
						buf := make([]byte, r.Intn(3*ps)+1)
						r.Read(buf)
						off := offset()
						what = fmt.Sprintf("WriteAt(%s, %d, %d)", name, off, len(buf))
						f.WriteAt(buf, off) //nolint:errcheck
						ref.writeAt(rf, buf, off)
					case op < 12:
						got := make([]byte, r.Intn(3*ps)+1)
						want := make([]byte, len(got))
						off := offset()
						direct := op == 11
						what = fmt.Sprintf("ReadAt(%s, %d, %d, direct=%v)", name, off, len(got), direct)
						if direct {
							f.ReadAtDirect(got, off) //nolint:errcheck
						} else {
							f.ReadAt(got, off) //nolint:errcheck
						}
						ref.readAt(rf, want, off, direct)
						if !bytes.Equal(got, want) {
							t.Fatalf("%s step %d %s: bytes differ from the reference", label, step, what)
						}
					case op < 15:
						what = fmt.Sprintf("Sync(%s)", name)
						f.Sync()
						ref.sync(rf)
					case op < 16:
						// The reference's flush order is its map order;
						// SyncAll's charge must not depend on it.
						what = "SyncAll"
						d.SyncAll()
						ref.syncAll()
					case op < 18:
						size := offset()
						what = fmt.Sprintf("Truncate(%s, %d)", name, size)
						f.Truncate(size)
						ref.truncate(rf, size)
					case op < 19:
						what = fmt.Sprintf("Remove(%s)", name)
						d.Remove(name)
						ref.remove(name)
					default:
						what = "DropCaches"
						d.DropCaches()
						ref.dropCaches()
					}
					if got, want := d.Stats(), ref.stats; got != want {
						t.Fatalf("%s step %d %s: Stats\n got %+v\nwant %+v", label, step, what, got, want)
					}
					if got, want := time.Duration(d.seekNs.Load()), ref.seek; got != want {
						t.Fatalf("%s step %d %s: positioning charged %v, want %v", label, step, what, got, want)
					}
					if got, want := d.AllocatedBytes(), ref.allocatedBytes(); got != want {
						t.Fatalf("%s step %d %s: AllocatedBytes %d, want %d", label, step, what, got, want)
					}
					for _, n := range names {
						f, rf := d.OpenFile(n), ref.open(n)
						if f.Size() != rf.size || f.Allocated() != int64(len(rf.pages)*ps) {
							t.Fatalf("%s step %d %s: %s is %d bytes (%d allocated), want %d (%d)", label, step, what,
								n, f.Size(), f.Allocated(), rf.size, len(rf.pages)*ps)
						}
					}
					checkInvariants(t, d)
				}
			}
		}
	}
}

// checkInvariants walks the whole structure — the one place anything does —
// and checks what the page table, the LRU ring and the dirty sets promise
// each other.
func checkInvariants(t *testing.T, d *Disk) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	ring := make(map[*page]bool)
	for pg := d.lru.next; pg != &d.lru; pg = pg.next {
		if pg.next.prev != pg || pg.prev.next != pg {
			t.Fatal("LRU ring links are not mutual")
		}
		ring[pg] = true
	}
	if int64(len(ring)) != d.cachePages {
		t.Fatalf("LRU ring holds %d pages, cachePages says %d", len(ring), d.cachePages)
	}
	if d.capPages > 0 && d.cachePages > d.capPages {
		t.Fatalf("%d pages cached, capacity %d", d.cachePages, d.capPages)
	}
	var alloc int64
	for _, f := range d.files {
		var n int64
		for idx, pg := range f.pages {
			if pg.f != f || pg.idx != idx {
				t.Fatal("page-table entry filed under the wrong key")
			}
			if pg.data == nil && pg.next == nil {
				t.Fatal("page table lists a hole that is not cached")
			}
			if (pg.next != nil) != ring[pg] {
				t.Fatal("page's cached bit disagrees with the LRU ring")
			}
			if pg.data != nil {
				n++
			}
		}
		if n != f.alloc {
			t.Fatalf("file counts %d materialized pages, has %d", f.alloc, n)
		}
		alloc += n
		for i, pg := range f.dirty {
			if pg.dirtyAt != i+1 || pg.f != f || pg.next == nil || pg.data == nil {
				t.Fatal("dirty set lists a page that is misplaced, foreign, uncached or a hole")
			}
		}
	}
	if alloc != d.allocPages {
		t.Fatalf("disk counts %d materialized pages, files hold %d", d.allocPages, alloc)
	}
}

// journalAppendSync is the intent journal's access pattern: a 29-byte record
// appended to a tiny file and flushed, retired by truncation every so often.
func journalAppendSync(f *File, n int) {
	rec := make([]byte, 29)
	var off int64
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			f.Truncate(0)
			off = 0
		}
		f.WriteAt(rec, off) //nolint:errcheck
		off += int64(len(rec))
		f.Sync()
	}
}

// diskWithCachedPages returns an unbounded-cache disk (what csar-iod runs)
// holding pages clean cached pages of a data file. The cost under test
// depends on the number of pages, not their size, so they are kept small.
func diskWithCachedPages(pages int) *Disk {
	const ps = 64
	d := New(nil, Params{PageSize: ps})
	data := d.Open("data")
	buf := make([]byte, ps)
	for i := 0; i < pages; i++ {
		data.WriteAt(buf, int64(i)*ps) //nolint:errcheck
	}
	data.Sync()
	return d
}

// TestSyncCostIndependentOfCacheSize: flushing one dirty journal page must
// cost the same whether the disk caches one page of another file or 64 Ki
// (256 MiB of 4 KiB pages). The scan it replaces was three orders of magnitude apart.
func TestSyncCostIndependentOfCacheSize(t *testing.T) {
	const appends = 2000
	best := func(d *Disk) time.Duration {
		j := d.OpenFile("journal")
		b := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			journalAppendSync(j, appends)
			b = min(b, time.Since(start))
		}
		return b
	}
	small := best(diskWithCachedPages(1))
	large := best(diskWithCachedPages(64 << 10))
	t.Logf("journal append+sync: %v/op beside 1 cached page, %v/op beside 64 Ki", small/appends, large/appends)
	if large > 4*small {
		t.Fatalf("journal append+sync costs %v/op beside 64 Ki cached pages, %v/op beside one: Sync scales with the cache",
			large/appends, small/appends)
	}
}

// BenchmarkJournalAppendSync is one intent-journal append and flush on a disk
// that already caches what 16 MiB, 256 MiB and 2 GiB of 4 KiB pages come to.
func BenchmarkJournalAppendSync(b *testing.B) {
	for _, pages := range []int{4 << 10, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("cached=%dKi", pages>>10), func(b *testing.B) {
			j := diskWithCachedPages(pages).OpenFile("journal")
			b.ReportAllocs()
			b.ResetTimer()
			journalAppendSync(j, b.N)
		})
	}
}
