package client

import (
	"fmt"
	"math"
	"sync/atomic"

	"csar/internal/wire"
)

// This file is the client half of online scheme migration ("re-layout
// under writers"): while internal/recovery re-encodes a file's bytes into
// a pinned shadow layout, the client coordinates its foreground I/O with
// the copy through a monotonic cursor — writes overlapping the region
// already copied are mirrored into the shadow layout, writes wholly ahead
// of the cursor go to the live layout only (the copy will reach them) —
// and a gate that keeps chunk copies and foreground operations from
// interleaving. The structure deliberately mirrors the resync machinery in
// dirty.go, with one difference: a migration has no dirty log to absorb a
// write that slips between a chunk copy and the cursor advance, so the
// cursor is advanced inside the exclusive section, never after it.
//
// Coordination is client-local, matching the single-coordinator assumption
// of Rebuild, Resync and scrub: writes from other clients during a
// migration are not mirrored into the shadow layout, and other clients'
// open Files keep the old layout after the cutover.

// relayoutState tracks one in-progress migration on this client. cursor is
// the logical byte offset up to which the shadow layout holds the file's
// bytes; it only ever rises, and math.MaxInt64 marks the copy complete
// (every foreground write from then on is mirrored).
type relayoutState struct {
	dst    *File
	cursor atomic.Int64
}

// BeginRelayout registers an in-progress migration of one file into the
// shadow layout dst (a gate-exempt handle from FileForRelayout). From now
// until EndRelayout, foreground writes behind the cursor are dual-written
// to dst. Called by internal/recovery.
func (c *Client) BeginRelayout(fileID uint64, dst *File) {
	c.dmu.Lock()
	if _, ok := c.relayouts[fileID]; !ok {
		c.relayouts[fileID] = &relayoutState{dst: dst}
	}
	c.dmu.Unlock()
}

// AdvanceRelayoutCursor raises the copy cursor to logical offset `to`.
// Monotonic like the resync cursor: once a write observes its offset
// behind the cursor, the copied region can never become uncopied again.
func (c *Client) AdvanceRelayoutCursor(fileID uint64, to int64) {
	c.dmu.Lock()
	st := c.relayouts[fileID]
	c.dmu.Unlock()
	if st == nil {
		return
	}
	for {
		cur := st.cursor.Load()
		if to <= cur || st.cursor.CompareAndSwap(cur, to) {
			return
		}
	}
}

// EndRelayout deregisters a migration (committed or aborted). Foreground
// writes revert to the live layout alone.
func (c *Client) EndRelayout(fileID uint64) {
	c.dmu.Lock()
	delete(c.relayouts, fileID)
	c.dmu.Unlock()
}

// RelayoutCursor exposes the current copy cursor (MinInt64 when no
// migration is active for the file); tests use it to pin down the
// dual-write boundary deterministically.
func (c *Client) RelayoutCursor(fileID uint64) int64 {
	c.dmu.Lock()
	st := c.relayouts[fileID]
	c.dmu.Unlock()
	if st == nil {
		return math.MinInt64
	}
	return st.cursor.Load()
}

// relayoutDst samples the migration target and cursor for a file; ok is
// false when no migration is active for it. Called with the relayout gate
// held (shared side), which is what makes the sampled cursor stable for
// the duration of the caller's write.
func (c *Client) relayoutDst(fileID uint64) (*File, int64, bool) {
	c.dmu.Lock()
	st := c.relayouts[fileID]
	c.dmu.Unlock()
	if st == nil {
		return nil, 0, false
	}
	return st.dst, st.cursor.Load(), true
}

// RelayoutExclusive runs fn with the relayout gate held exclusively,
// blocking out every foreground read and write. The migration engine wraps
// each chunk copy (read from the live layout, write to the shadow, advance
// the cursor) and the final commit/cutover in it: a foreground write
// either finishes before the chunk copy reads the live layout (so the copy
// includes it) or starts after the cursor has advanced over its extent (so
// it dual-writes). File handles created with FileForRelayout skip the
// gate and are the only ones safe to use inside fn.
func (c *Client) RelayoutExclusive(fn func()) {
	c.relayoutGate.Lock()
	defer c.relayoutGate.Unlock()
	fn()
}

// FileForRelayout builds a gate-exempt file handle for a layout under
// migration: the shadow target of dual-writes (issued with the gate
// already held shared) and the engine's source/target handles inside
// RelayoutExclusive sections. Exempt handles never touch the relayout
// gate, which is what makes those nested uses deadlock-free.
func (c *Client) FileForRelayout(ref wire.FileRef, size int64) (*File, error) {
	f, err := c.fileFor(ref, size)
	if err != nil {
		return nil, err
	}
	f.gateExempt = true
	return f, nil
}

// AdoptRef swaps the file's layout identity in place — the migration
// coordinator calls it inside RelayoutExclusive, after the manager commits
// the cutover, so every write that started before the swap drained through
// the gate and every later one plans against the new geometry. The logical
// size is unchanged by a migration, so f.size carries over.
func (f *File) AdoptRef(ref wire.FileRef) error { return f.setLayout(ref) }

// PinScheme asks the manager to pin a shadow layout for migrating the file
// to the target scheme; re-issuing a matching pin resumes it.
func (c *Client) PinScheme(fileID uint64, scheme wire.Scheme, parity uint8) (*wire.SetSchemeResp, error) {
	resp, err := c.mgrCall(&wire.SetScheme{ID: fileID, Scheme: scheme, Parity: parity})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.SetSchemeResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected set-scheme response %T", resp)
	}
	return sr, nil
}

// CommitScheme asks the manager to cut the file over to its pinned shadow
// layout; newID fences the commit against a superseded pin.
func (c *Client) CommitScheme(fileID, newID uint64) error {
	_, err := c.mgrCall(&wire.CommitScheme{ID: fileID, NewID: newID})
	return err
}

// AbortScheme asks the manager to drop the file's pinned shadow layout.
func (c *Client) AbortScheme(fileID, newID uint64) error {
	_, err := c.mgrCall(&wire.AbortScheme{ID: fileID, NewID: newID})
	return err
}

// OpenInfo fetches a file's raw metadata — live layout, logical size, and
// any pinned migration target — without building a File. The migration
// orchestrator uses it to resume or abort a pin found at the manager.
func (c *Client) OpenInfo(name string) (*wire.OpenResp, error) {
	resp, err := c.mgrCall(&wire.Open{Name: name})
	if err != nil {
		return nil, err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected open response %T", resp)
	}
	return or, nil
}
