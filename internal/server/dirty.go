// Dirty-region log — the server half of online incremental resync.
//
// While a server is dead, every degraded write records the code groups in
// which the absentee's member went stale onto its two neighbours
// (MarkDirty), each of which keeps a durable per-(file, dead-server) log
// next to the intent journal. A group number names the damage whole: the
// dead server holds at most one member of any group, whatever its store.
// When the server returns, recovery dumps both replicas (DirtyDump),
// replays only the union of their groups, and retires exactly what it read
// (ClearDirty) — groups re-dirtied by concurrent foreground writes keep a
// newer generation and survive the clear, so the next resync round picks
// them up instead of losing them.
//
// The log is a journal.Pair like the stripe intents': one CRC-framed record
// per entry, fsync per append batch, a compaction through the pair on every
// clear (the log shrinks at exactly the moments it is cheap to rewrite), a
// torn tail truncated away at load. A crash-restart of a surviving server,
// even inside a clear, therefore preserves the outage's damage records; only
// a blank replacement disk loses them, which resync detects through the
// epoch set and answers with a full rebuild.
package server

import (
	"fmt"
	"sort"
	"sync"

	"csar/internal/journal"
	"csar/internal/raid"
	"csar/internal/wire"
)

// dirtyJournalName is the server-wide dirty-region journal on the local
// backend, with its pair's second log at dirtyJournalName.1.
const dirtyJournalName = "dirty.journal"

// Journal record kinds. Every record carries the outage epoch so the load
// path can rebuild the epoch set from any record mix. Kinds 2-4 stay
// retired: an older format's unit, mirror and stripe records used them, and
// the loader must keep poisoning them as it does any kind it does not know.
const (
	dirtyKindEpoch    uint8 = 1 // epoch sighting only; value unused
	dirtyKindOverflow uint8 = 5 // its overflow stores diverged; value unused
	dirtyKindGroup    uint8 = 6 // code group whose member on it went stale
)

// dirtyKey addresses one log: the damage a specific dead server missed for
// a specific file.
type dirtyKey struct {
	file uint64
	dead uint16
}

// dirtyLog is the in-memory state of one (file, dead server) log. Each
// entry remembers the generation of its last MarkDirty; generations are
// not persisted — after a restart they start over, which only makes a
// concurrent ClearDirty more conservative (stale generations never match,
// so entries survive and are replayed again).
type dirtyLog struct {
	epochs      map[uint64]struct{}
	groups      map[int64]uint64 // group -> generation
	overflow    bool
	overflowGen uint64
	gen         uint64
}

func newDirtyLog() *dirtyLog {
	return &dirtyLog{epochs: make(map[uint64]struct{}), groups: make(map[int64]uint64)}
}

func (dl *dirtyLog) empty() bool { return len(dl.groups) == 0 && !dl.overflow }

// dirtyState is the server's dirty-log table plus its journal, guarded by
// its own mutex (independent of mu/jmu; handlers take only it).
type dirtyState struct {
	mu      sync.Mutex
	logs    map[dirtyKey]*dirtyLog
	journal *journal.Pair
}

// dirtyEntry is one dirty-journal record, the payload of one journal frame:
//
//	u8 kind | u64 file ID | u16 dead server | u64 epoch | i64 value
type dirtyEntry struct {
	kind  uint8
	key   dirtyKey
	epoch uint64
	val   int64
}

// codec reads or writes one record.
func (r *dirtyEntry) codec(c *wire.Codec) {
	c.U8(&r.kind)
	c.U64(&r.key.file)
	c.U16(&r.key.dead)
	c.U64(&r.epoch)
	c.I64(&r.val)
}

// dirtyRecord encodes one record.
func dirtyRecord(kind uint8, k dirtyKey, epoch uint64, val int64) []byte {
	r := dirtyEntry{kind, k, epoch, val}
	e := wire.Encoding(make([]byte, 0, 27))
	r.codec(&e)
	return e.Buf
}

// loadDirty replays the dirty journal at startup, so a surviving server's
// damage records outlive its own crash-restarts.
func (s *Server) loadDirty() {
	s.dirty.logs = make(map[dirtyKey]*dirtyLog)
	s.dirty.journal = s.openPair(dirtyJournalName, func(p []byte) error {
		var r dirtyEntry
		d := wire.Decoding(p)
		if r.codec(&d); d.Err() != nil {
			return d.Err()
		}
		dl := s.dirty.logs[r.key]
		if dl == nil {
			dl = newDirtyLog()
			s.dirty.logs[r.key] = dl
		}
		dl.epochs[r.epoch] = struct{}{}
		dl.gen++
		switch r.kind {
		case dirtyKindEpoch:
		case dirtyKindGroup:
			dl.groups[r.val] = dl.gen
		case dirtyKindOverflow:
			dl.overflow = true
			dl.overflowGen = dl.gen
		default:
			// Damage this server cannot read (a record of another format)
			// is damage the log no longer names: the poison epoch sends the
			// outage's resync to a full rebuild instead of forgetting it.
			dl.epochs[0] = struct{}{}
		}
		return nil
	})
}

// compactDirtyLocked compacts the journal to the current state: one epoch
// record per epoch sighting, one record per live entry. Caller holds
// dirty.mu.
func (s *Server) compactDirtyLocked() {
	var recs [][]byte
	for k, dl := range s.dirty.logs {
		// Item records carry an arbitrary member of the epoch set; the
		// set itself is reconstructed from the dedicated epoch records.
		var anyEpoch uint64
		for ep := range dl.epochs {
			anyEpoch = ep
			recs = append(recs, dirtyRecord(dirtyKindEpoch, k, ep, 0))
		}
		for g := range dl.groups {
			recs = append(recs, dirtyRecord(dirtyKindGroup, k, anyEpoch, g))
		}
		if dl.overflow {
			recs = append(recs, dirtyRecord(dirtyKindOverflow, k, anyEpoch, 0))
		}
	}
	s.dirty.journal.Compact(recs...) //nolint:errcheck // local store
}

// handleMarkDirty merges one degraded write's damage into the log. Every
// mentioned entry gets a fresh generation even when it is already logged —
// that is what makes a re-dirty during resync visible to the clear — but
// only genuinely new entries cost a journal record, so hammering the same
// region does not grow the log. A group in which the dead server holds no
// member names nothing resync could restore, so the request is refused
// before anything is logged.
func (s *Server) handleMarkDirty(m *wire.MarkDirty) (wire.Msg, error) {
	l, err := raid.Resolve(m.File)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if int(m.Dead) >= l.Servers {
		return nil, fmt.Errorf("server: MarkDirty for server %d of a %d-server layout", m.Dead, l.Servers)
	}
	for _, g := range m.Groups {
		if _, ok := l.MemberHeldBy(int(m.Dead), g); g < 0 || !ok {
			return nil, fmt.Errorf("server: MarkDirty for group %d, in which server %d holds no member", g, m.Dead)
		}
	}
	k := dirtyKey{m.File.ID, m.Dead}
	s.dirty.mu.Lock()
	defer s.dirty.mu.Unlock()
	dl := s.dirty.logs[k]
	if dl == nil {
		dl = newDirtyLog()
		s.dirty.logs[k] = dl
	}
	var recs [][]byte
	if _, ok := dl.epochs[m.Epoch]; !ok {
		dl.epochs[m.Epoch] = struct{}{}
		recs = append(recs, dirtyRecord(dirtyKindEpoch, k, m.Epoch, 0))
	}
	for _, g := range m.Groups {
		dl.gen++
		if _, ok := dl.groups[g]; !ok {
			recs = append(recs, dirtyRecord(dirtyKindGroup, k, m.Epoch, g))
		}
		dl.groups[g] = dl.gen
	}
	if m.Overflow {
		dl.gen++
		if !dl.overflow {
			recs = append(recs, dirtyRecord(dirtyKindOverflow, k, m.Epoch, 0))
		}
		dl.overflow = true
		dl.overflowGen = dl.gen
	}
	// The degraded write runs only once this is acknowledged durable.
	if err := s.dirty.journal.Append(true, recs...); err != nil {
		return nil, fmt.Errorf("server: logging dirty regions: %w", err)
	}
	return &wire.OK{}, nil
}

// handleDirtyDump snapshots one log. Lists are sorted so dumps are
// deterministic; an absent log answers with an empty epoch set, which is
// how resync distinguishes "nothing happened" from "log present".
func (s *Server) handleDirtyDump(m *wire.DirtyDump) (wire.Msg, error) {
	k := dirtyKey{m.File.ID, m.Dead}
	resp := &wire.DirtyDumpResp{}
	s.dirty.mu.Lock()
	defer s.dirty.mu.Unlock()
	dl := s.dirty.logs[k]
	if dl == nil {
		return resp, nil
	}
	for ep := range dl.epochs {
		resp.Epochs = append(resp.Epochs, ep)
	}
	sort.Slice(resp.Epochs, func(i, j int) bool { return resp.Epochs[i] < resp.Epochs[j] })
	resp.Groups = make([]wire.DirtyItem, 0, len(dl.groups))
	for g, gen := range dl.groups {
		resp.Groups = append(resp.Groups, wire.DirtyItem{Group: g, Gen: gen})
	}
	sort.Slice(resp.Groups, func(i, j int) bool { return resp.Groups[i].Group < resp.Groups[j].Group })
	resp.Overflow = dl.overflow
	resp.OverflowGen = dl.overflowGen
	return resp, nil
}

// handleClearDirty retires replayed entries: each one only if its
// generation still matches the dump it was replayed from. A fully drained
// log disappears, epochs included — the outage is over. The journal is
// compacted rather than appended to, so clears leave no clear records; a
// clear that retires nothing (every entry re-dirtied since) leaves it be.
func (s *Server) handleClearDirty(m *wire.ClearDirty) (wire.Msg, error) {
	k := dirtyKey{m.File.ID, m.Dead}
	s.dirty.mu.Lock()
	defer s.dirty.mu.Unlock()
	dl := s.dirty.logs[k]
	if dl == nil {
		return &wire.OK{}, nil
	}
	if m.All {
		delete(s.dirty.logs, k)
		s.compactDirtyLocked()
		return &wire.OK{}, nil
	}
	changed := false
	for _, it := range m.Groups {
		if gen, ok := dl.groups[it.Group]; ok && gen == it.Gen {
			delete(dl.groups, it.Group)
			changed = true
		}
	}
	if m.Overflow && dl.overflow && dl.overflowGen == m.OverflowGen {
		dl.overflow = false
		changed = true
	}
	if dl.empty() {
		delete(s.dirty.logs, k)
		changed = true
	}
	if changed {
		s.compactDirtyLocked()
	}
	return &wire.OK{}, nil
}

// dropFileDirty removes every dirty log of a deleted file.
func (s *Server) dropFileDirty(fileID uint64) {
	s.dirty.mu.Lock()
	defer s.dirty.mu.Unlock()
	changed := false
	for k := range s.dirty.logs {
		if k.file == fileID {
			delete(s.dirty.logs, k)
			changed = true
		}
	}
	if changed {
		s.compactDirtyLocked()
	}
}
