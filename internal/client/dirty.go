package client

import (
	"fmt"
	"math"
	"sync/atomic"

	"csar/internal/raid"
	"csar/internal/wire"
)

// This file is the client half of online incremental resync: while a server
// is out, every degraded write records what it damaged on that server into a
// dirty-region log replicated on the dead server's two ring neighbours
// (wire.MarkDirty). While internal/recovery replays that log, foreground
// writes coordinate with the replay through a background pass (pass.go):
// writes entirely behind its cursor are forwarded to the recovering server,
// writes ahead of it re-dirty the log.

// outageKey identifies one (file, dead server) outage on this client, and the
// background pass that repairs it.
type outageKey struct {
	file uint64
	dead int
}

// DirtyReplicas returns the servers holding the dirty-region log for an
// outage of server dead in an n-server stripe set: its two ring neighbours,
// chosen because they are exactly the servers already carrying the dead
// server's redundancy (RAID1 mirror and overflow mirror on the next server,
// mirror-of and overflow-of the previous), so any failure that takes out a
// replica also exceeds the redundancy the log protects. With n == 2 the two
// collapse to the single survivor.
func DirtyReplicas(n, dead int) []int {
	next := (dead + 1) % n
	prev := (dead - 1 + n) % n
	if next == prev {
		return []int{next}
	}
	return []int{next, prev}
}

// outageEpoch returns the epoch of the (file, dead) outage, minting a fresh
// random one at the first degraded write. The epoch names one outage: every
// MarkDirty of the outage carries it, and the resync that later dumps the
// replicas compares their epoch sets to detect a log that missed writes
// (a replica that was itself down for part of the outage). Epoch 0 is the
// poison value — see poisonOutage.
func (c *Client) outageEpoch(fileID uint64, dead int) uint64 {
	k := outageKey{fileID, dead}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if e, ok := c.outages[k]; ok {
		return e
	}
	e := nextLockToken()
	c.outages[k] = e
	return e
}

// poisonOutage forces the outage's epoch to 0 after a MarkDirty replication
// failure: the log may now be incomplete, and any replica that records a
// 0 epoch (or whose epoch set disagrees with its peer's) makes resync fall
// back to a full rebuild.
func (c *Client) poisonOutage(fileID uint64, dead int) {
	c.dmu.Lock()
	c.outages[outageKey{fileID, dead}] = 0
	c.dmu.Unlock()
}

// clearOutages drops the outage epochs for server idx across all files
// (MarkUp's job: the outage is over, and a future one is a new epoch).
func (c *Client) clearOutages(idx int) {
	c.dmu.Lock()
	for k := range c.outages {
		if k.dead == idx {
			delete(c.outages, k)
		}
	}
	c.dmu.Unlock()
}

// dirtyDamage computes what a write plan damages on the dead server, which
// is exactly the set resync must replay: the code groups in which its one
// member went stale. In every group an encode or read-modify-write portion
// touches, the dead server holds at most one member: a data unit (damaged
// only if the write covers it), or a redundancy member the write updates —
// a stripe's parity unit, or a mirror unit's copy. An encode portion of a
// layout with overflow also invalidates overflow extents on every live
// server, and the dead one misses that; an overflow portion damages the
// dead server's overflow stores where it keeps a piece or a piece's copy.
func dirtyDamage(l raid.Layout, plan []portion, dead int) (groups []int64, overflow bool) {
	for _, pt := range plan {
		first, last := l.UnitOf(pt.span.Off), l.UnitOf(pt.span.End()-1)
		if pt.mode == modeOverflow {
			for b := first; b <= last; b++ {
				overflow = overflow || l.ServerOf(b) == dead || l.MirrorServerOf(b) == dead
			}
			continue
		}
		overflow = overflow || l.Overflow
		g0, _ := l.GroupOf(first)
		g1, _ := l.GroupOf(last)
		for grp := g0; grp <= g1; grp++ {
			i, ok := l.MemberHeldBy(dead, grp)
			if !ok {
				continue
			}
			if m := l.GroupMember(grp, i); m.Store != wire.StoreData || m.Unit >= first && m.Unit <= last {
				groups = append(groups, grp)
			}
		}
	}
	return groups, overflow
}

// recordDirty durably logs a degraded write's damage on the dirty-log
// replicas before the write executes (dirty-then-write: the damage is on
// record before any data lands, so a crash between the two costs a spurious
// replay, never a missed one). A replica failure poisons the outage's epoch,
// which forces the eventual resync into a full rebuild; if every replica
// refuses the record the degraded write itself is refused, because its
// damage could otherwise be silently forgotten.
func (c *Client) recordDirty(ref wire.FileRef, l raid.Layout, plan []portion, dead int) error {
	groups, overflow := dirtyDamage(l, plan, dead)
	if len(groups) == 0 && !overflow {
		return nil
	}
	atomic.AddInt64(&c.metrics.DirtyUnits, int64(len(groups)))
	m := &wire.MarkDirty{
		File: ref, Dead: uint16(dead), Epoch: c.outageEpoch(ref.ID, dead),
		Groups: groups, Overflow: overflow,
	}
	replicas := DirtyReplicas(l.Servers, dead)
	failed := 0
	var lastErr error
	for _, r := range replicas {
		if _, err := c.callSrv(r, m); err != nil {
			c.poisonOutage(ref.ID, dead)
			failed++
			lastErr = err
		}
	}
	if failed == len(replicas) {
		return fmt.Errorf("client: dirty log unreachable, refusing degraded write: %w", lastErr)
	}
	return nil
}

// syncExtentEnd is the forward decision's granularity: the highest logical
// offset whose replay state the write depends on — the end of the last code
// group it touches. For a parity shape that is the stripe-aligned end of the
// write (a partial-stripe write touches its stripe's parity, which the
// replayer owns until the cursor passes the stripe end); for a mirror the
// unit-aligned end. A write with an overflow portion returns MaxInt64:
// overflow extents have no byte position in the replay order, so such
// writes only forward once the whole replay (including overflow
// reconciliation) is behind the cursor.
func syncExtentEnd(l raid.Layout, plan []portion, off, length int64) int64 {
	for _, pt := range plan {
		if pt.mode == modeOverflow {
			return math.MaxInt64
		}
	}
	k, _ := l.GroupSize()
	grp, _ := l.GroupOf(l.UnitOf(off + length - 1))
	return l.UnitStart((grp + 1) * int64(k))
}
