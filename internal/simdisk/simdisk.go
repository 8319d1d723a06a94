// Package simdisk models the local storage of one I/O server: a disk with a
// seek-plus-transfer cost model fronted by an LRU page cache with write-back,
// mimicking the Linux buffer cache the paper's servers ran on.
//
// The model captures the three storage effects the paper's evaluation hinges
// on:
//
//   - reads of data that is in the server's page cache are (nearly) free,
//     while uncached reads pay seek plus transfer time — this is why RAID5's
//     read-modify-write is cheap in Figure 4(b) (cache-warm) and collapses in
//     the overwrite experiments of Figures 6(b) and 7(b) (cache-cold);
//   - writing a *partial* page that is not cached forces the page to be read
//     from disk first — the previously undocumented problem of Section 5.2
//     that CSAR's server-side write buffering works around;
//   - the cache has finite capacity, so a scheme writing twice the bytes
//     (RAID1) overflows it earlier and degrades to disk speed — the RAID1
//     collapse in the BTIO Class C runs.
//
// Contents are always held in memory; the cache is a timing overlay, not a
// correctness mechanism. A failed server is simulated by discarding the
// whole Disk, so write-back ordering never becomes user-visible.
//
// Every operation costs what the request touches, never what the disk holds:
// each file's page table is the only index (one lookup per page), the LRU is
// a ring threaded through the table's entries, and each file lists its own
// dirty pages, so Sync visits those and nothing else.
package simdisk

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/simtime"
	"csar/internal/storage"
)

// Params configures the disk model.
type Params struct {
	// PageSize is the local file system block size in bytes.
	PageSize int
	// CacheBytes is the page cache capacity. Zero means an unbounded cache
	// (pages are never evicted; only Sync writes reach the disk arm).
	CacheBytes int64
	// SeekTime is the simulated positioning cost of one physical disk access.
	SeekTime time.Duration
	// ReadBW and WriteBW are the media transfer rates in bytes per
	// simulated second.
	ReadBW, WriteBW float64
}

// DefaultParams models the paper's first testbed: two IBM Deskstar 75GXP
// disks behind a 3Ware controller in RAID0 (roughly 70 MB/s streaming) with
// a 4 KiB block size. SeekTime is the cost of a random repositioning (seek
// plus rotational latency, ~9 ms on that generation of drives); sequential
// access does not pay it because the model coalesces contiguous runs, both
// within one request and across consecutive requests.
func DefaultParams() Params {
	return Params{
		PageSize:   4096,
		CacheBytes: 256 << 20,
		SeekTime:   9 * time.Millisecond,
		ReadBW:     70e6,
		WriteBW:    70e6,
	}
}

// Stats counts modeled physical disk activity and cache behaviour.
type Stats struct {
	DiskReadOps    int64
	DiskReadBytes  int64
	DiskWriteOps   int64
	DiskWriteBytes int64
	CacheHits      int64
	CacheMisses    int64
	// ForcedPageReads counts pages read from disk only because a partial
	// page write targeted an uncached page (the Section 5.2 effect).
	ForcedPageReads int64
}

// Disk is one server's storage. All methods are safe for concurrent use.
type Disk struct {
	params Params
	clock  *simtime.Clock
	arm    *simtime.Limiter // the serial disk mechanism

	mu         sync.Mutex
	files      map[string]*fileData
	lru        page  // sentinel of the LRU ring: next = most recent, prev = next victim
	cachePages int64 // current number of cached pages (the ring's length)
	capPages   int64 // capacity in pages; 0 = unbounded
	allocPages int64 // materialized pages across all files
	lastEvict  pageKey
	haveEvict  bool
	// readStreams are the cursors of recently active sequential read
	// streams — the model's stand-in for per-stream OS readahead plus
	// elevator request sorting, which let several concurrent streaming
	// readers share one disk without paying a full seek per request.
	readStreams [16]pageKey
	nStreams    int
	streamHand  int

	stats struct {
		readOps, readBytes, writeOps, writeBytes int64
		hits, misses, forced                     int64
		seekNs                                   int64 // positioning time charged; not in Stats, tests compare it
	}
}

// fileData is one file: its size, its page table and its dirty set.
//
// The page table holds an entry for every page that is materialized (has
// contents), cached, or both, and for no other. A dirty page is always both.
// alloc counts the materialized entries; Disk.allocPages is the sum over all
// files, which keeps AllocatedBytes exact without a walk.
type fileData struct {
	name  string
	size  int64
	pages map[int64]*page
	alloc int64
	dirty []*page // cached pages awaiting write-back, in no particular order
}

// page is one page-table entry. It is cached exactly while it is linked into
// the disk's LRU ring (next != nil) and dirty exactly while f.dirty lists it.
type page struct {
	f          *fileData
	idx        int64
	data       []byte // PageSize bytes; nil for a hole, which is listed only while cached
	prev, next *page  // LRU ring links
	dirtyAt    int    // 1 + position in f.dirty; 0 when clean
}

type pageKey struct {
	f    *fileData
	page int64
}

// charge accumulates modeled disk work decided under the mutex and paid for
// after it is released.
type charge struct {
	seek  time.Duration // accumulated positioning time
	ops   int           // number of physical accesses (for stats)
	read  int64
	write int64
}

// nearGapPages is the threshold below which a jump counts as a short
// track-to-track seek (an elevator pass skipping a small hole) rather than
// a full repositioning.
const nearGapPages = 512

// nearSeekFraction is the cost of a short seek relative to a full one.
const nearSeekFraction = 8

// seekFor returns the positioning cost of starting a physical access at
// page next, given that the previous access on this resource ended just
// before page prev (valid when have is true).
func (d *Disk) seekFor(have bool, prev, next pageKey) time.Duration {
	if have && prev.f == next.f {
		gap := next.page - prev.page
		if gap == 0 {
			return 0 // strictly sequential
		}
		if gap > 0 && gap <= nearGapPages {
			return d.params.SeekTime / nearSeekFraction
		}
	}
	return d.params.SeekTime
}

// readSeekFor returns the positioning cost of physically reading page next,
// matching it against the pool of active stream cursors: a page continuing
// a known stream is free, a short forward hop costs a track-to-track seek,
// anything else is a full repositioning that starts a new stream. Caller
// holds d.mu.
func (d *Disk) readSeekFor(next pageKey) time.Duration {
	for i := 0; i < d.nStreams; i++ {
		s := &d.readStreams[i]
		if s.f != next.f {
			continue
		}
		gap := next.page - s.page
		if gap == 0 {
			s.page = next.page + 1
			return 0
		}
		if gap > 0 && gap <= nearGapPages {
			s.page = next.page + 1
			return d.params.SeekTime / nearSeekFraction
		}
	}
	// New stream: replace round-robin once the pool is full.
	if d.nStreams < len(d.readStreams) {
		d.readStreams[d.nStreams] = pageKey{next.f, next.page + 1}
		d.nStreams++
	} else {
		d.readStreams[d.streamHand] = pageKey{next.f, next.page + 1}
		d.streamHand = (d.streamHand + 1) % len(d.readStreams)
	}
	return d.params.SeekTime
}

// New creates a disk with the given timing model. An untimed clock yields a
// functionally identical disk with all delays elided.
func New(clock *simtime.Clock, p Params) *Disk {
	if p.PageSize <= 0 {
		panic(fmt.Sprintf("simdisk: invalid page size %d", p.PageSize))
	}
	d := &Disk{
		params: p,
		clock:  clock,
		arm:    simtime.NewLimiter(clock, 1), // rate unused; durations only
		files:  make(map[string]*fileData),
	}
	d.lru.next, d.lru.prev = &d.lru, &d.lru
	if p.CacheBytes > 0 {
		d.capPages = p.CacheBytes / int64(p.PageSize)
		if d.capPages < 1 {
			d.capPages = 1
		}
	}
	return d
}

// Params returns the disk's configuration.
func (d *Disk) Params() Params { return d.params }

// Open returns a handle to the named file, creating it empty if absent.
// It satisfies storage.Backend.
func (d *Disk) Open(name string) storage.File { return d.OpenFile(name) }

// OpenFile is Open with the concrete handle type (for tests that need the
// cache internals).
func (d *Disk) OpenFile(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		f = &fileData{name: name, pages: make(map[int64]*page)}
		d.files[name] = f
	}
	return &File{d: d, f: f}
}

// Remove deletes the named file, discarding its contents and their cached
// pages. Cached holes carry nothing to discard: they age out of the LRU.
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[name]
	if f == nil {
		return
	}
	delete(d.files, name)
	for _, pg := range f.pages {
		if pg.data != nil && pg.next != nil {
			d.uncache(pg)
		}
	}
	d.allocPages -= f.alloc
	f.pages, f.alloc, f.size = nil, 0, 0
}

// FileNames returns the names of all files on the disk, sorted.
func (d *Disk) FileNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// TotalBytes returns the sum of all file sizes (logical sizes, counting
// holes).
func (d *Disk) TotalBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, f := range d.files {
		n += f.size
	}
	return n
}

// AllocatedBytes returns the sum of materialized blocks across all files —
// `du` semantics: holes in sparse files do not count. This is the "sum of
// the file sizes at the I/O servers" measured for Table 2 of the paper,
// where the Hybrid scheme's in-place data files are sparse wherever the
// data lives only in the overflow region.
func (d *Disk) AllocatedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocPages * int64(d.params.PageSize)
}

// Stats returns a snapshot of the disk's counters.
func (d *Disk) Stats() Stats {
	return Stats{
		DiskReadOps:     atomic.LoadInt64(&d.stats.readOps),
		DiskReadBytes:   atomic.LoadInt64(&d.stats.readBytes),
		DiskWriteOps:    atomic.LoadInt64(&d.stats.writeOps),
		DiskWriteBytes:  atomic.LoadInt64(&d.stats.writeBytes),
		CacheHits:       atomic.LoadInt64(&d.stats.hits),
		CacheMisses:     atomic.LoadInt64(&d.stats.misses),
		ForcedPageReads: atomic.LoadInt64(&d.stats.forced),
	}
}

// DropCaches empties the page cache without charging any disk time, after
// flushing nothing: it models the paper's method of removing a file's
// contents from server memory between the initial-write and overwrite runs.
// Dirty pages are silently marked clean first (contents are never lost in
// the model).
func (d *Disk) DropCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.lru.next != &d.lru {
		d.uncache(d.lru.next)
	}
	d.haveEvict = false
	d.nStreams = 0
	d.streamHand = 0
}

// pay charges accumulated physical work to the disk arm and the counters.
func (d *Disk) pay(c charge) {
	if c.ops == 0 && c.read == 0 && c.write == 0 {
		return
	}
	atomic.AddInt64(&d.stats.readOps, int64(c.ops)) // approximate: ops counted once as accesses
	atomic.AddInt64(&d.stats.readBytes, c.read)
	atomic.AddInt64(&d.stats.writeBytes, c.write)
	atomic.AddInt64(&d.stats.seekNs, int64(c.seek))
	if !d.clock.Timed() {
		return
	}
	sim := c.seek
	if d.params.ReadBW > 0 {
		sim += time.Duration(float64(c.read) / d.params.ReadBW * float64(time.Second))
	}
	if d.params.WriteBW > 0 {
		sim += time.Duration(float64(c.write) / d.params.WriteBW * float64(time.Second))
	}
	d.arm.AcquireDur(sim)
}

// touch marks page idx of f most-recently-used, creating its table entry and
// caching it if absent, and evicts as needed. Caller holds d.mu. Returns the
// entry, whether the page was already cached, and the eviction charge
// incurred.
func (d *Disk) touch(f *fileData, idx int64, dirty bool) (pg *page, wasCached bool, c charge) {
	pg = f.pages[idx]
	if pg == nil {
		pg = &page{f: f, idx: idx}
		f.pages[idx] = pg
	}
	if dirty && pg.dirtyAt == 0 {
		f.dirty = append(f.dirty, pg)
		pg.dirtyAt = len(f.dirty)
	}
	if wasCached = pg.next != nil; wasCached {
		pg.prev.next, pg.next.prev = pg.next, pg.prev
	} else {
		d.cachePages++
	}
	pg.prev, pg.next = &d.lru, d.lru.next
	pg.prev.next, pg.next.prev = pg, pg
	for d.capPages > 0 && d.cachePages > d.capPages {
		victim := d.lru.prev
		if victim.dirtyAt != 0 {
			// Write-back is elevator-scheduled in practice: evicting pages
			// in or near file order costs little or no positioning.
			if sk := d.seekFor(d.haveEvict, d.lastEvict, pageKey{victim.f, victim.idx}); sk > 0 {
				c.seek += sk
				c.ops++
			}
			c.write += int64(d.params.PageSize)
			atomic.AddInt64(&d.stats.writeOps, 1)
			d.lastEvict = pageKey{victim.f, victim.idx + 1}
			d.haveEvict = true
		}
		d.uncache(victim)
	}
	return pg, wasCached, c
}

// uncache takes a cached page out of the LRU ring and out of its file's
// dirty set; a hole's table entry goes with it. Caller holds d.mu.
func (d *Disk) uncache(pg *page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
	d.cachePages--
	if at := pg.dirtyAt; at != 0 {
		f := pg.f
		last := len(f.dirty) - 1
		f.dirty[at-1] = f.dirty[last]
		f.dirty[at-1].dirtyAt = at
		f.dirty[last] = nil
		f.dirty = f.dirty[:last]
		pg.dirtyAt = 0
	}
	if pg.data == nil {
		delete(pg.f.pages, pg.idx)
	}
}

// File is a handle to one file on a Disk.
type File struct {
	d *Disk
	f *fileData
}

// Name returns the file's name on its disk.
func (h *File) Name() string { return h.f.name }

// Size returns the current file size (highest written offset).
func (h *File) Size() int64 {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	return h.f.size
}

// Allocated returns the file's materialized bytes (block-granular, `du`
// semantics): holes contribute nothing.
func (h *File) Allocated() int64 {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	return h.f.alloc * int64(h.d.params.PageSize)
}

// ReadAt reads len(p) bytes at offset off. Bytes beyond the current file
// size (or in never-written holes) read as zero; it always returns len(p),
// matching how the CSAR servers treat sparse regions of their local files.
func (h *File) ReadAt(p []byte, off int64) (int, error) {
	return h.readAt(p, off, true)
}

// ReadAtDirect reads like ReadAt but bypasses the page cache, O_DIRECT
// style: no pages are inserted, promoted, or evicted, and every in-size
// page is charged as a physical read even when a cached copy exists. Long
// sequential scans — the integrity scrubber's checksum sweeps — use it so a
// background pass can neither evict the foreground working set nor absorb
// its dirty-page write-backs.
func (h *File) ReadAtDirect(p []byte, off int64) (int, error) {
	return h.readAt(p, off, false)
}

func (h *File) readAt(p []byte, off int64, cache bool) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("simdisk: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	d := h.d
	f := h.f
	ps := int64(d.params.PageSize)

	d.mu.Lock()
	var c charge
	end := off + int64(len(p))
	for cur := off; cur < end; {
		idx := cur / ps
		if idx*ps >= f.size {
			// Nothing is materialized or charged beyond the file's size.
			clear(p[cur-off:])
			break
		}
		pageEnd := min((idx+1)*ps, end)
		var pg *page
		cached := false
		if cache {
			var ev charge
			pg, cached, ev = d.touch(f, idx, false)
			c.ops += ev.ops
			c.seek += ev.seek
			c.write += ev.write
		} else {
			pg = f.pages[idx]
		}
		if cached {
			atomic.AddInt64(&d.stats.hits, 1)
		} else {
			atomic.AddInt64(&d.stats.misses, 1)
			if sk := d.readSeekFor(pageKey{f, idx}); sk > 0 {
				c.seek += sk
				c.ops++
			}
			c.read += ps
		}
		dst := p[cur-off : pageEnd-off]
		if pg != nil && pg.data != nil {
			copy(dst, pg.data[cur-idx*ps:])
		} else {
			clear(dst)
		}
		cur = pageEnd
	}
	d.mu.Unlock()
	d.pay(c)
	return len(p), nil
}

// WriteAt writes len(p) bytes at offset off, extending the file as needed.
// Full-page writes land in the cache dirty; partial-page writes to uncached
// pages inside the file pay a forced page read first (Section 5.2).
func (h *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("simdisk: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	d := h.d
	f := h.f
	ps := int64(d.params.PageSize)

	d.mu.Lock()
	var c charge
	end := off + int64(len(p))
	for cur := off; cur < end; {
		idx := cur / ps
		pageStart := idx * ps
		pageEnd := pageStart + ps
		wEnd := min(pageEnd, end)
		partial := cur > pageStart || wEnd < pageEnd
		// A partial write only needs the old page if the page holds data,
		// i.e. it starts inside the current file size.
		needsOld := partial && pageStart < f.size
		pg, cached, ev := d.touch(f, idx, true)
		c.ops += ev.ops
		c.seek += ev.seek
		c.write += ev.write
		if !cached && needsOld {
			atomic.AddInt64(&d.stats.forced, 1)
			atomic.AddInt64(&d.stats.misses, 1)
			c.seek += d.readSeekFor(pageKey{f, idx})
			c.ops++
			c.read += ps
		}
		if pg.data == nil {
			pg.data = make([]byte, ps)
			f.alloc++
			d.allocPages++
		}
		copy(pg.data[cur-pageStart:], p[cur-off:wEnd-off])
		cur = wEnd
	}
	if end > f.size {
		f.size = end
	}
	d.mu.Unlock()
	d.pay(c)
	return len(p), nil
}

// Truncate sets the file size, discarding contents beyond it along with
// their cached pages.
func (h *File) Truncate(size int64) {
	if size < 0 {
		size = 0
	}
	d := h.d
	f := h.f
	ps := int64(d.params.PageSize)
	d.mu.Lock()
	defer d.mu.Unlock()
	firstDead := (size + ps - 1) / ps
	for idx, pg := range f.pages {
		if idx < firstDead || pg.data == nil {
			continue
		}
		pg.data = nil
		f.alloc--
		d.allocPages--
		if pg.next != nil {
			d.uncache(pg)
		} else {
			delete(f.pages, idx)
		}
	}
	if size < f.size && size%ps != 0 {
		// Zero the tail of the now-last page.
		if pg := f.pages[size/ps]; pg != nil && pg.data != nil {
			clear(pg.data[size%ps:])
		}
	}
	f.size = size
}

// Sync flushes all dirty cached pages of this file to the modeled disk,
// charging one access per contiguous dirty run. It corresponds to the
// post-write flush the paper's benchmarks measure.
func (h *File) Sync() {
	d := h.d
	f := h.f
	ps := int64(d.params.PageSize)
	var few [8]int64 // a journal append dirties one page: no allocation
	dirty := few[:0]
	d.mu.Lock()
	for i, pg := range f.dirty {
		dirty = append(dirty, pg.idx)
		pg.dirtyAt = 0
		f.dirty[i] = nil
	}
	f.dirty = f.dirty[:0]
	d.mu.Unlock()
	if len(dirty) == 0 {
		return
	}
	// One elevator pass in ascending order: a full repositioning to start,
	// then short hops over small holes (the Hybrid scheme's data files are
	// sparse at partial-stripe portions) and full seeks over large ones.
	slices.Sort(dirty)
	var c charge
	c.seek = d.params.SeekTime
	c.ops = 1
	for i := 1; i < len(dirty); i++ {
		if gap := dirty[i] - dirty[i-1]; gap != 1 {
			c.ops++
			if gap <= nearGapPages {
				c.seek += d.params.SeekTime / nearSeekFraction
			} else {
				c.seek += d.params.SeekTime
			}
		}
	}
	c.write = int64(len(dirty)) * ps
	atomic.AddInt64(&d.stats.writeOps, int64(c.ops))
	d.pay(c)
}

// SyncAll flushes every dirty page on the disk.
func (d *Disk) SyncAll() {
	d.mu.Lock()
	files := make([]*fileData, 0, len(d.files))
	for _, f := range d.files {
		files = append(files, f)
	}
	d.mu.Unlock()
	for _, f := range files {
		(&File{d: d, f: f}).Sync()
	}
}

// Interface conformance.
var (
	_ storage.Backend = (*Disk)(nil)
	_ storage.File    = (*File)(nil)
)
