package recovery

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/raid"
	"csar/internal/wire"
)

// This file implements online incremental resync: instead of reconstructing
// every store a returning server owns (Rebuild), it replays only the regions
// degraded writes actually damaged while the server was out, as recorded in
// the dirty-region log its ring neighbours kept (wire.MarkDirty). The replay
// runs online — foreground writes continue, coordinated through the client's
// sync-point cursor: writes behind the cursor are forwarded straight to the
// recovering server, writes ahead of it re-dirty the log and are picked up
// by a later round.

// ErrResyncAborted is returned when a resync could not finish (an RPC
// failed mid-replay, or the rounds failed to converge). The dirty log is
// left intact: re-running Resync after the fault clears will converge, and
// nothing read from the recovering server in the meantime is trusted
// because it stays out of service until MarkUp.
var ErrResyncAborted = errors.New("recovery: resync aborted; dirty log left intact")

// ResyncOptions tunes an online resync pass.
type ResyncOptions struct {
	// RateLimit throttles replay I/O to this many bytes per simulated
	// second; 0 means unthrottled. When the client has no simulated clock,
	// the limit is enforced in wall time.
	RateLimit float64
	// DryRun dumps and validates the dirty log and reports what a resync
	// would replay, without writing anything or clearing the log.
	DryRun bool
}

// ResyncReport describes what a resync pass did (or, dry, would do). Each
// replayed code group counts once, under the store of the member the
// recovering server holds in it.
type ResyncReport struct {
	Units         int64 // data units replayed onto the recovering server
	Mirrors       int64 // RAID1 mirror units replayed
	Stripes       int64 // parity stripes recomputed
	OverflowBytes int64 // Hybrid overflow bytes reconciled
	Rounds        int   // dump→replay→clear rounds until the log drained
	FullRebuild   bool  // the log was untrustworthy; Rebuild ran instead
}

// Items is the total dirty-log items the pass replayed.
func (r ResyncReport) Items() int64 { return r.Units + r.Mirrors + r.Stripes }

// count adds one replayed group of layout l to the report.
func (r *ResyncReport) count(l raid.Layout, dead int, group int64) {
	byStore := [...]*int64{wire.StoreData: &r.Units, wire.StoreParity: &r.Stripes, wire.StoreMirror: &r.Mirrors}
	i, _ := l.MemberHeldBy(dead, group)
	*byStore[l.GroupMember(group, i).Store]++
}

// resyncItem is one damaged code group in replay order.
type resyncItem struct {
	group int64
	end   int64 // logical byte offset its replay completes (cursor position)
}

// DirtyServers returns the servers that have outstanding dirty-region logs
// for file f — the set a recovery orchestrator should consider resyncing.
// The check is server-authoritative (it asks the replicas, not the client's
// own memory), so it works from a fresh process. Unreachable replicas are
// skipped: a candidate is reported if any reachable replica holds log
// entries for it.
func DirtyServers(c *client.Client, f *client.File) []int {
	g := f.Geometry()
	ref := f.Ref()
	var out []int
	for dead := 0; dead < g.Servers; dead++ {
		for _, r := range client.DirtyReplicas(g.Servers, dead) {
			resp, err := c.ServerCaller(r).Call(&wire.DirtyDump{File: ref, Dead: uint16(dead)})
			if err != nil {
				continue
			}
			if !dumpEmpty(resp.(*wire.DirtyDumpResp)) {
				out = append(out, dead)
				break
			}
		}
	}
	return out
}

// noItems reports whether a dump names no damage, epochs aside.
func noItems(d *wire.DirtyDumpResp) bool { return len(d.Groups) == 0 && !d.Overflow }

// dumpEmpty reports whether a replica holds no log at all.
func dumpEmpty(d *wire.DirtyDumpResp) bool { return len(d.Epochs) == 0 && noItems(d) }

// every reports whether pred holds for each dump.
func every(dumps []*wire.DirtyDumpResp, pred func(*wire.DirtyDumpResp) bool) bool {
	for _, d := range dumps {
		if !pred(d) {
			return false
		}
	}
	return true
}

// dumpAll fetches the outage's dirty log from every replica.
func dumpAll(c *client.Client, ref wire.FileRef, dead int, replicas []int) ([]*wire.DirtyDumpResp, error) {
	dumps := make([]*wire.DirtyDumpResp, len(replicas))
	for i, r := range replicas {
		resp, err := c.ServerCaller(r).Call(&wire.DirtyDump{File: ref, Dead: uint16(dead)})
		if err != nil {
			return nil, fmt.Errorf("%w: dirty dump from server %d: %v", ErrResyncAborted, r, err)
		}
		dumps[i] = resp.(*wire.DirtyDumpResp)
	}
	return dumps, nil
}

// epochsTrustworthy decides whether the replicas' logs together form a
// complete record of the outage. Every degraded write stamped its records
// with the outage epoch on both replicas, so: the epoch sets must be equal
// (a replica that was itself briefly down missed records and shows fewer
// epochs — or none while its peer has some), no epoch may be 0 (the
// client's poison value after a MarkDirty replication failure), and a
// replica with items but no epoch is corrupt. Anything else means the log
// may have forgotten damage, and only a full rebuild is safe.
func epochsTrustworthy(dumps []*wire.DirtyDumpResp) bool {
	base := epochSet(dumps[0])
	for _, d := range dumps {
		s := epochSet(d)
		if len(s) == 0 && !dumpEmpty(d) {
			return false
		}
		if len(s) != len(base) {
			return false
		}
		for e := range s {
			if e == 0 {
				return false
			}
			if _, ok := base[e]; !ok {
				return false
			}
		}
	}
	return true
}

func epochSet(d *wire.DirtyDumpResp) map[uint64]struct{} {
	s := make(map[uint64]struct{}, len(d.Epochs))
	for _, e := range d.Epochs {
		s[e] = struct{}{}
	}
	return s
}

// mergeItems unions the replicas' dumps into one replay list of distinct
// groups in ascending order, each ending at its group's end — the boundary
// the client's forward decision (syncExtentEnd) uses — so the list is also
// the order the cursor sweeps the file. A record present on only one
// replica — the other failed its MarkDirty — is still replayed; the union
// is why a single replication failure does not force a full rebuild.
func mergeItems(l raid.Layout, dumps []*wire.DirtyDumpResp) (items []resyncItem, overflow bool) {
	k, _ := l.GroupSize()
	seen := map[int64]bool{}
	for _, d := range dumps {
		for _, it := range d.Groups {
			if !seen[it.Group] {
				seen[it.Group] = true
				items = append(items, resyncItem{it.Group, l.UnitStart((it.Group + 1) * int64(k))})
			}
		}
		overflow = overflow || d.Overflow
	}
	sort.Slice(items, func(i, j int) bool { return items[i].group < items[j].group })
	return items, overflow
}

// Resync brings server dead back up to date for file f by replaying its
// dirty-region log, and falls back to a full Rebuild when the log cannot be
// trusted. Unlike Rebuild it does not require the server's stores to be
// blank — it targets a server that returned with its pre-outage contents
// intact — and it runs online: foreground writes through c continue,
// coordinated with the replay via the client's sync-point cursor (behind it
// they are forwarded to the recovering server; ahead of it they re-dirty
// the log, and a later round replays them). The caller is responsible for
// MarkUp once Resync returns nil.
func Resync(c *client.Client, f *client.File, dead int, opts ResyncOptions) (ResyncReport, error) {
	g := f.Geometry()
	ref := f.Ref()
	var report ResyncReport
	if dead < 0 || dead >= g.Servers {
		return report, fmt.Errorf("recovery: server %d out of range", dead)
	}
	if f.Shape().Tolerates() == 0 {
		return report, fmt.Errorf("recovery: %w", client.ErrNoRedundancy)
	}
	replicas := client.DirtyReplicas(g.Servers, dead)
	defer c.ObserveSince("resync_pass", time.Now())

	lim := c.PassLimiter(opts.RateLimit)

	dumps, err := dumpAll(c, ref, dead, replicas)
	if err != nil {
		return report, err
	}
	if every(dumps, dumpEmpty) {
		return report, nil // no degraded write ever logged damage
	}
	if !epochsTrustworthy(dumps) {
		report.FullRebuild = true
		if opts.DryRun {
			return report, nil
		}
		return report, fullRebuildFallback(c, f, dead, replicas)
	}
	l := f.Layout()
	if opts.DryRun {
		items, overflow := mergeItems(l, dumps)
		for _, it := range items {
			report.count(l, dead, it.group)
		}
		if overflow {
			report.OverflowBytes = -1 // unknown without reading the dumps
		}
		return report, nil
	}

	pass, err := c.BeginPass(ref.ID, dead, nil)
	if err != nil {
		return report, fmt.Errorf("%w: %v", ErrResyncAborted, err)
	}
	defer pass.End()

	// Each round: replay the union of the replicas' dumps, then retire
	// exactly the generations we saw (a write that re-dirtied an item during
	// the replay bumps its generation, so the retire leaves it for the next
	// round). Round 1 advances the cursor item by item and finishes by
	// raising it past everything; from then on every foreground write is
	// forwarded, no new damage is logged, and the dump shrinks to empty
	// within a round or two.
	const maxRounds = 64
	var deads []int // probed once, at the first item
	for round := 1; ; round++ {
		if round > maxRounds {
			return report, fmt.Errorf("%w: no convergence after %d rounds", ErrResyncAborted, maxRounds)
		}
		report.Rounds = round
		items, overflow := mergeItems(l, dumps)
		for _, it := range items {
			if deads == nil {
				// Items decode around the recovering server — whose stale
				// members are never survivors — and whatever else is down
				// now.
				if deads, err = probeDead(c, f, dead); err != nil {
					return report, fmt.Errorf("%w: %v", ErrResyncAborted, err)
				}
			}
			lim.Acquire(g.StripeUnit)
			var rerr error
			pass.Exclusive(func() {
				// Under the gate no foreground write from this client is
				// mid-flight. The recovering server holds one member of the
				// group, which restoreMembers regenerates.
				rerr = restoreMembers(c, f, dead, deads, []int64{it.group})
				if rerr == nil && round == 1 {
					pass.Advance(it.end)
				}
			})
			if rerr != nil {
				return report, fmt.Errorf("%w: replay of group %d: %v", ErrResyncAborted, it.group, rerr)
			}
			report.count(l, dead, it.group)
		}
		if overflow {
			var n int64
			var rerr error
			pass.Exclusive(func() {
				// The server returned with its pre-outage overflow tables,
				// which may hold extents since invalidated by full-stripe
				// writes it missed — and an overflow write only adds
				// extents — so both stores are wiped before they are
				// restored.
				if rerr = wipeOverflow(c, ref, dead); rerr == nil {
					n, rerr = restoreOverflow(c, ref, g, dead)
				}
			})
			if rerr != nil {
				return report, fmt.Errorf("%w: overflow reconcile: %v", ErrResyncAborted, rerr)
			}
			lim.Acquire(n)
			report.OverflowBytes += n
		}
		if round == 1 {
			// Terminal cursor: every write from here on forwards. The
			// exclusive section is the barrier — the writes that sampled the
			// old cursor have all returned, so their MarkDirty records are on
			// the replicas before the next (final) dumps.
			pass.Exclusive(func() { pass.Advance(math.MaxInt64) })
		}
		atomic.AddInt64(&c.Counters().ResyncedUnits, int64(len(items)))
		for i, r := range replicas {
			d := dumps[i]
			_, cerr := c.ServerCaller(r).Call(&wire.ClearDirty{
				File: ref, Dead: uint16(dead),
				Groups: d.Groups, Overflow: d.Overflow, OverflowGen: d.OverflowGen,
			})
			if cerr != nil {
				return report, fmt.Errorf("%w: clear on server %d: %v", ErrResyncAborted, r, cerr)
			}
		}
		if dumps, err = dumpAll(c, ref, dead, replicas); err != nil {
			return report, err
		}
		if every(dumps, noItems) {
			break
		}
		if !epochsTrustworthy(dumps) {
			// A MarkDirty replication failed mid-resync and poisoned the
			// epoch; the log can no longer be trusted.
			report.FullRebuild = true
			return report, fullRebuildFallback(c, f, dead, replicas)
		}
	}

	// The log drained: retire the outage's epochs so the next outage starts
	// a clean log.
	for _, r := range replicas {
		if _, cerr := c.ServerCaller(r).Call(&wire.ClearDirty{File: ref, Dead: uint16(dead), All: true}); cerr != nil {
			return report, fmt.Errorf("%w: epoch retire on server %d: %v", ErrResyncAborted, r, cerr)
		}
	}
	return report, nil
}

// fullRebuildFallback reconstructs the server in full when the dirty log is
// untrustworthy. Unlike the blank-replacement Rebuild path, the returning
// server may hold stale overflow extents that an overflow write (which only
// adds extents) would not remove, so an overflow shape wipes them first.
func fullRebuildFallback(c *client.Client, f *client.File, dead int, replicas []int) error {
	atomic.AddInt64(&c.Counters().FullRebuildFallbacks, 1)
	ref := f.Ref()
	if f.Shape().Overflow {
		if err := wipeOverflow(c, ref, dead); err != nil {
			return fmt.Errorf("recovery: full-rebuild fallback: %w", err)
		}
	}
	if err := Rebuild(c, f, dead); err != nil {
		return fmt.Errorf("recovery: full-rebuild fallback: %w", err)
	}
	for _, r := range replicas {
		if _, err := c.ServerCaller(r).Call(&wire.ClearDirty{File: ref, Dead: uint16(dead), All: true}); err != nil {
			return fmt.Errorf("recovery: full-rebuild fallback: clear on server %d: %w", r, err)
		}
	}
	return nil
}

// wipeOverflow invalidates every overflow extent (both stores) on a server.
func wipeOverflow(c *client.Client, ref wire.FileRef, srv int) error {
	all := []wire.Span{{Off: 0, Len: math.MaxInt64 / 2}}
	if _, err := c.ServerCaller(srv).Call(&wire.InvalidateOverflow{File: ref, Spans: all}); err != nil {
		return err
	}
	_, err := c.ServerCaller(srv).Call(&wire.InvalidateOverflow{File: ref, Spans: all, Mirror: true})
	return err
}

// restoreOverflow writes a returning server's overflow stores from their
// surviving copies — the primary overflow from the mirror the next server
// holds, the overflow mirror from the previous server's primary — and returns
// the bytes written. It only adds extents: Rebuild's blank replacement needs
// no more, a server that kept its stores is wiped first.
func restoreOverflow(c *client.Client, ref wire.FileRef, g raid.Geometry, dead int) (int64, error) {
	var n int64
	for _, leg := range []struct {
		from   int
		mirror bool // the source is a mirror store; the target is the other kind
	}{
		{(dead + 1) % g.Servers, true},
		{(dead - 1 + g.Servers) % g.Servers, false},
	} {
		resp, err := c.ServerCaller(leg.from).Call(&wire.OverflowDump{File: ref, Mirror: leg.mirror})
		if err != nil {
			return n, err
		}
		dump := resp.(*wire.OverflowDumpResp)
		if len(dump.Extents) == 0 {
			continue
		}
		if _, err := c.ServerCaller(dead).Call(&wire.WriteData{
			File: ref, Store: wire.OverflowStore(!leg.mirror), Spans: dump.Extents, Data: dump.Data,
		}); err != nil {
			return n, err
		}
		n += int64(len(dump.Data))
	}
	return n, nil
}
