package simdisk

import (
	"container/list"
	"sort"
	"time"
)

// refDisk is the scan-based reference model the differential test holds Disk
// to: the straightforward formulation of the same cache — one map of page
// contents per file, one disk-wide index of cached pages, a container/list
// LRU, and a Sync that walks the whole LRU looking for the file's dirty
// pages. It is untimed and single-threaded; it only accumulates the charges
// Disk would pay.
type refDisk struct {
	params   Params
	files    map[string]*refFile
	lru      *list.List // of *refCachePage, front = most recent
	index    map[refKey]*list.Element
	capPages int64

	lastEvict refKey
	haveEvict bool

	readStreams [16]refKey
	nStreams    int
	streamHand  int

	stats Stats
	seek  time.Duration
}

type refFile struct {
	size  int64
	pages map[int64][]byte
}

type refKey struct {
	f    *refFile
	page int64
}

type refCachePage struct {
	key   refKey
	dirty bool
}

func newRefDisk(p Params) *refDisk {
	d := &refDisk{
		params: p,
		files:  make(map[string]*refFile),
		lru:    list.New(),
		index:  make(map[refKey]*list.Element),
	}
	if p.CacheBytes > 0 {
		d.capPages = max(p.CacheBytes/int64(p.PageSize), 1)
	}
	return d
}

func (d *refDisk) open(name string) *refFile {
	f := d.files[name]
	if f == nil {
		f = &refFile{pages: make(map[int64][]byte)}
		d.files[name] = f
	}
	return f
}

func (d *refDisk) remove(name string) {
	f := d.files[name]
	if f == nil {
		return
	}
	delete(d.files, name)
	for page := range f.pages {
		d.dropPage(refKey{f, page})
	}
	f.pages = nil
}

func (d *refDisk) allocatedBytes() int64 {
	var n int64
	for _, f := range d.files {
		n += int64(len(f.pages)) * int64(d.params.PageSize)
	}
	return n
}

func (d *refDisk) dropCaches() {
	d.lru.Init()
	d.index = make(map[refKey]*list.Element)
	d.haveEvict = false
	d.nStreams = 0
	d.streamHand = 0
}

func (d *refDisk) seekFor(have bool, prev, next refKey) time.Duration {
	if have && prev.f == next.f {
		gap := next.page - prev.page
		if gap == 0 {
			return 0
		}
		if gap > 0 && gap <= nearGapPages {
			return d.params.SeekTime / nearSeekFraction
		}
	}
	return d.params.SeekTime
}

func (d *refDisk) readSeekFor(next refKey) time.Duration {
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
	if d.nStreams < len(d.readStreams) {
		d.readStreams[d.nStreams] = refKey{next.f, next.page + 1}
		d.nStreams++
	} else {
		d.readStreams[d.streamHand] = refKey{next.f, next.page + 1}
		d.streamHand = (d.streamHand + 1) % len(d.readStreams)
	}
	return d.params.SeekTime
}

// access charges one physical access decided by a seek lookup: a positioning
// cost counts as an op, a free continuation does not.
func (d *refDisk) access(sk time.Duration) {
	if sk > 0 {
		d.seek += sk
		d.stats.DiskReadOps++
	}
}

func (d *refDisk) touch(key refKey, dirty bool) (wasCached bool) {
	if el, ok := d.index[key]; ok {
		d.lru.MoveToFront(el)
		cp := el.Value.(*refCachePage)
		cp.dirty = cp.dirty || dirty
		return true
	}
	d.index[key] = d.lru.PushFront(&refCachePage{key: key, dirty: dirty})
	for d.capPages > 0 && int64(d.lru.Len()) > d.capPages {
		back := d.lru.Back()
		victim := back.Value.(*refCachePage)
		if victim.dirty {
			d.access(d.seekFor(d.haveEvict, d.lastEvict, victim.key))
			d.stats.DiskWriteBytes += int64(d.params.PageSize)
			d.stats.DiskWriteOps++
			d.lastEvict = refKey{victim.key.f, victim.key.page + 1}
			d.haveEvict = true
		}
		d.dropElement(back)
	}
	return false
}

func (d *refDisk) dropElement(el *list.Element) {
	d.lru.Remove(el)
	delete(d.index, el.Value.(*refCachePage).key)
}

func (d *refDisk) dropPage(key refKey) {
	if el, ok := d.index[key]; ok {
		d.dropElement(el)
	}
}

func (d *refDisk) readAt(f *refFile, p []byte, off int64, direct bool) {
	ps := int64(d.params.PageSize)
	end := off + int64(len(p))
	for cur := off; cur < end; {
		idx := cur / ps
		pageEnd := min((idx+1)*ps, end)
		if idx*ps < f.size {
			if !direct && d.touch(refKey{f, idx}, false) {
				d.stats.CacheHits++
			} else {
				d.stats.CacheMisses++
				d.access(d.readSeekFor(refKey{f, idx}))
				d.stats.DiskReadBytes += ps
			}
		}
		dst := p[cur-off : pageEnd-off]
		if src := f.pages[idx]; src != nil {
			copy(dst, src[cur-idx*ps:])
		} else {
			clear(dst)
		}
		cur = pageEnd
	}
}

func (d *refDisk) writeAt(f *refFile, p []byte, off int64) {
	ps := int64(d.params.PageSize)
	end := off + int64(len(p))
	for cur := off; cur < end; {
		idx := cur / ps
		pageStart := idx * ps
		pageEnd := pageStart + ps
		wEnd := min(pageEnd, end)
		partial := cur > pageStart || wEnd < pageEnd
		needsOld := partial && pageStart < f.size
		if cached := d.touch(refKey{f, idx}, true); !cached && needsOld {
			d.stats.ForcedPageReads++
			d.stats.CacheMisses++
			d.seek += d.readSeekFor(refKey{f, idx})
			d.stats.DiskReadOps++
			d.stats.DiskReadBytes += ps
		}
		dst := f.pages[idx]
		if dst == nil {
			dst = make([]byte, ps)
			f.pages[idx] = dst
		}
		copy(dst[cur-pageStart:], p[cur-off:wEnd-off])
		cur = wEnd
	}
	f.size = max(f.size, end)
}

func (d *refDisk) truncate(f *refFile, size int64) {
	ps := int64(d.params.PageSize)
	firstDead := (size + ps - 1) / ps
	for idx := range f.pages {
		if idx >= firstDead {
			delete(f.pages, idx)
			d.dropPage(refKey{f, idx})
		}
	}
	if size < f.size && size%ps != 0 {
		if pg := f.pages[size/ps]; pg != nil {
			clear(pg[size%ps:])
		}
	}
	f.size = size
}

// sync is the scan: every cached page of every file is looked at to find
// this file's dirty ones.
func (d *refDisk) sync(f *refFile) {
	var dirty []int64
	for el := d.lru.Front(); el != nil; el = el.Next() {
		cp := el.Value.(*refCachePage)
		if cp.key.f == f && cp.dirty {
			dirty = append(dirty, cp.key.page)
			cp.dirty = false
		}
	}
	if len(dirty) == 0 {
		return
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	ops := int64(1)
	d.seek += d.params.SeekTime
	for i := 1; i < len(dirty); i++ {
		if gap := dirty[i] - dirty[i-1]; gap != 1 {
			ops++
			if gap <= nearGapPages {
				d.seek += d.params.SeekTime / nearSeekFraction
			} else {
				d.seek += d.params.SeekTime
			}
		}
	}
	// Like Disk, a flush counts its accesses on both op counters.
	d.stats.DiskWriteOps += ops
	d.stats.DiskReadOps += ops
	d.stats.DiskWriteBytes += int64(len(dirty)) * int64(d.params.PageSize)
}

func (d *refDisk) syncAll() {
	for _, f := range d.files {
		d.sync(f)
	}
}
