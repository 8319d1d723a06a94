package scrub

import "sync"

// Journal carries checksum evidence between scrub passes of one file. When a
// pass finds a copy clean — primary and mirror agree, or parity matches the
// XOR of its data units — the journal remembers the checksums the agreement
// was reached at. A later pass that finds the copies diverged can then vote:
// the copy still matching the last-known-good checksum wins, and the other
// is repaired. Without journal evidence the scrubber falls back to the
// conservative default of regenerating redundancy from data.
//
// The journal is deliberately forgetful: any mismatch event drops the
// affected entries, because a mismatch under concurrent foreground writes
// usually means the journal is simply stale, and stale evidence must never
// outvote fresh data. Entries only return once a subsequent pass sees the
// copies agree again.
//
// A nil *Journal is valid and disables evidence-based classification.
type Journal struct {
	mu       sync.Mutex
	units    map[int64]uint32 // data unit -> checksum at last agreement
	parity   map[int64]uint32 // code group -> redundancy checksum at last agreement
	overflow map[int]uint32   // server -> overflow aggregate at last agreement
}

// NewJournal returns an empty journal, typically kept across scrub passes of
// the same file.
func NewJournal() *Journal {
	return &Journal{
		units:    make(map[int64]uint32),
		parity:   make(map[int64]uint32),
		overflow: make(map[int]uint32),
	}
}

func (j *Journal) setUnit(b int64, sum uint32) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.units[b] = sum
	j.mu.Unlock()
}

func (j *Journal) unit(b int64) (uint32, bool) {
	if j == nil {
		return 0, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sum, ok := j.units[b]
	return sum, ok
}

func (j *Journal) setParity(stripe int64, sum uint32) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.parity[stripe] = sum
	j.mu.Unlock()
}

func (j *Journal) parityOf(stripe int64) (uint32, bool) {
	if j == nil {
		return 0, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sum, ok := j.parity[stripe]
	return sum, ok
}

// dropStripe forgets a code group's redundancy entry and the entries of its
// data units [first, first+count).
func (j *Journal) dropStripe(stripe, first int64, count int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	delete(j.parity, stripe)
	for i := int64(0); i < int64(count); i++ {
		delete(j.units, first+i)
	}
	j.mu.Unlock()
}

func (j *Journal) setOverflow(srv int, sum uint32) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.overflow[srv] = sum
	j.mu.Unlock()
}

func (j *Journal) overflowOf(srv int) (uint32, bool) {
	if j == nil {
		return 0, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sum, ok := j.overflow[srv]
	return sum, ok
}

func (j *Journal) dropOverflow(srv int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	delete(j.overflow, srv)
	j.mu.Unlock()
}
