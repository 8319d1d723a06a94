package client

import (
	"fmt"
	"math"
	"sync/atomic"

	"csar/internal/core"
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

// dirtyDamage computes what a write plan damages on the dead server: the
// data units and mirror copies it owns that the write skips, the parity
// stripes it owns that the write updates (or leaves stale), and whether its
// overflow stores are affected. This is exactly the set resync must replay.
func dirtyDamage(g raid.Geometry, plan core.Plan, dead int) (units, mirrors, stripes []int64, overflow bool) {
	seenU := map[int64]bool{}
	seenM := map[int64]bool{}
	seenS := map[int64]bool{}
	addUnits := func(sp raid.Span, mirrorsToo bool) {
		for b := g.UnitOf(sp.Off); b <= g.UnitOf(sp.End()-1); b++ {
			if g.ServerOf(b) == dead && !seenU[b] {
				seenU[b] = true
				units = append(units, b)
			}
			if mirrorsToo && g.MirrorServerOf(b) == dead && !seenM[b] {
				seenM[b] = true
				mirrors = append(mirrors, b)
			}
		}
	}
	addStripes := func(sp raid.Span) {
		for s := g.StripeOf(sp.Off); s <= g.StripeOf(sp.End()-1); s++ {
			if _, ok := g.ParityUnitOn(dead, s); ok && !seenS[s] {
				seenS[s] = true
				stripes = append(stripes, s)
			}
		}
	}
	for _, pt := range plan.Portions {
		switch pt.Mode {
		case core.ModeMirrored:
			addUnits(pt.Span, true)
		case core.ModeFullStripe:
			addUnits(pt.Span, false)
			addStripes(pt.Span)
			if plan.Shape.Overflow {
				// The in-place write implicitly invalidates overflow extents
				// on every live server; the dead one misses the invalidation,
				// so its overflow stores need reconciling too.
				overflow = true
			}
		case core.ModeRMW:
			addUnits(pt.Span, false)
			addStripes(pt.Span)
		case core.ModeOverflow:
			for b := g.UnitOf(pt.Span.Off); b <= g.UnitOf(pt.Span.End()-1); b++ {
				if g.ServerOf(b) == dead || g.MirrorServerOf(b) == dead {
					overflow = true
					break
				}
			}
		case core.ModePlain:
			addUnits(pt.Span, false)
		}
	}
	return units, mirrors, stripes, overflow
}

// recordDirty durably logs a degraded write's damage on the dirty-log
// replicas before the write executes (dirty-then-write: the damage is on
// record before any data lands, so a crash between the two costs a spurious
// replay, never a missed one). A replica failure poisons the outage's epoch,
// which forces the eventual resync into a full rebuild; if every replica
// refuses the record the degraded write itself is refused, because its
// damage could otherwise be silently forgotten.
func (c *Client) recordDirty(ref wire.FileRef, g raid.Geometry, plan core.Plan, dead int) error {
	units, mirrors, stripes, overflow := dirtyDamage(g, plan, dead)
	if len(units) == 0 && len(mirrors) == 0 && len(stripes) == 0 && !overflow {
		return nil
	}
	atomic.AddInt64(&c.metrics.DirtyUnits, int64(len(units)+len(mirrors)+len(stripes)))
	m := &wire.MarkDirty{
		File: ref, Dead: uint16(dead), Epoch: c.outageEpoch(ref.ID, dead),
		Units: units, Mirrors: mirrors, Stripes: stripes, Overflow: overflow,
	}
	replicas := DirtyReplicas(g.Servers, dead)
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
// offset whose replay state the write depends on. For a parity shape that is
// the stripe-aligned end of the write (a partial-stripe write touches its
// stripe's parity, which the replayer owns until the cursor passes the
// stripe end); for a mirror the unit-aligned end. A write with an overflow
// portion returns MaxInt64: overflow extents have no byte position in the
// replay order, so such writes only forward once the whole replay
// (including overflow reconciliation) is behind the cursor.
func syncExtentEnd(g raid.Geometry, plan core.Plan, off, length int64) int64 {
	if plan.Shape.Parity > 0 {
		for _, pt := range plan.Portions {
			if pt.Mode == core.ModeOverflow {
				return math.MaxInt64
			}
		}
		ss := g.StripeSize()
		return (g.StripeOf(off+length-1) + 1) * ss
	}
	return g.UnitStart(g.UnitOf(off+length-1)) + g.StripeUnit
}
