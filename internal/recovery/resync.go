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

// ResyncReport describes what a resync pass did (or, dry, would do).
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

// resyncItem is one dirty-log entry in replay order.
type resyncItem struct {
	kind byte  // 'u' data unit, 'm' mirror unit, 's' parity stripe
	val  int64 // unit or stripe number
	end  int64 // logical byte offset its replay completes (cursor position)
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

func dumpEmpty(d *wire.DirtyDumpResp) bool {
	return len(d.Epochs) == 0 && len(d.Units) == 0 && len(d.Mirrors) == 0 &&
		len(d.Stripes) == 0 && !d.Overflow
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

// mergeItems unions the replicas' dumps into one replay list sorted by the
// logical offset each item's replay completes (the order the cursor sweeps
// the file). A record present on only one replica — the other failed its
// MarkDirty — is still replayed; the union is why a single replication
// failure does not force a full rebuild.
func mergeItems(g raid.Geometry, dumps []*wire.DirtyDumpResp) (items []resyncItem, overflow bool) {
	type key struct {
		kind byte
		val  int64
	}
	seen := map[key]bool{}
	add := func(kind byte, val, end int64) {
		k := key{kind, val}
		if !seen[k] {
			seen[k] = true
			items = append(items, resyncItem{kind: kind, val: val, end: end})
		}
	}
	for _, d := range dumps {
		for _, it := range d.Units {
			add('u', it.Val, g.UnitStart(it.Val)+g.StripeUnit)
		}
		for _, it := range d.Mirrors {
			add('m', it.Val, g.UnitStart(it.Val)+g.StripeUnit)
		}
		for _, it := range d.Stripes {
			add('s', it.Val, g.StripeStart(it.Val+1))
		}
		overflow = overflow || d.Overflow
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].end != items[j].end {
			return items[i].end < items[j].end
		}
		if items[i].kind != items[j].kind {
			return items[i].kind < items[j].kind
		}
		return items[i].val < items[j].val
	})
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
	empty := true
	for _, d := range dumps {
		if !dumpEmpty(d) {
			empty = false
		}
	}
	if empty {
		return report, nil // no degraded write ever logged damage
	}
	if !epochsTrustworthy(dumps) {
		report.FullRebuild = true
		if opts.DryRun {
			return report, nil
		}
		return report, fullRebuildFallback(c, f, dead, replicas)
	}
	if opts.DryRun {
		items, overflow := mergeItems(g, dumps)
		for _, it := range items {
			switch it.kind {
			case 'u':
				report.Units++
			case 'm':
				report.Mirrors++
			case 's':
				report.Stripes++
			}
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
	for round := 1; ; round++ {
		if round > maxRounds {
			return report, fmt.Errorf("%w: no convergence after %d rounds", ErrResyncAborted, maxRounds)
		}
		report.Rounds = round
		items, overflow := mergeItems(g, dumps)
		for _, it := range items {
			lim.Acquire(g.StripeUnit)
			var rerr error
			pass.Exclusive(func() {
				if rerr = replayItem(c, f, it, dead); rerr == nil && round == 1 {
					pass.Advance(it.end)
				}
			})
			if rerr != nil {
				return report, fmt.Errorf("%w: replay of %c%d: %v", ErrResyncAborted, it.kind, it.val, rerr)
			}
			switch it.kind {
			case 'u':
				report.Units++
			case 'm':
				report.Mirrors++
			case 's':
				report.Stripes++
			}
		}
		if overflow {
			var n int64
			var rerr error
			pass.Exclusive(func() {
				// The server returned with its pre-outage overflow tables,
				// which may hold extents since invalidated by full-stripe
				// writes it missed — and WriteOverflow only adds extents —
				// so both stores are wiped before they are restored.
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
				Units: d.Units, Mirrors: d.Mirrors, Stripes: d.Stripes,
				Overflow: d.Overflow, OverflowGen: d.OverflowGen,
			})
			if cerr != nil {
				return report, fmt.Errorf("%w: clear on server %d: %v", ErrResyncAborted, r, cerr)
			}
		}
		if dumps, err = dumpAll(c, ref, dead, replicas); err != nil {
			return report, err
		}
		done := true
		for _, d := range dumps {
			if len(d.Units) != 0 || len(d.Mirrors) != 0 || len(d.Stripes) != 0 || d.Overflow {
				done = false
			}
		}
		if done {
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
// server may hold stale overflow extents that WriteOverflow (which only
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

// replayItem reconstructs one dirty-log item onto the recovering server
// from the surviving redundancy. Called under the client's replay gate, so
// no foreground write from the coordinating client is mid-flight.
func replayItem(c *client.Client, f *client.File, it resyncItem, dead int) error {
	g := f.Geometry()
	ref := f.Ref()
	span := wire.Span{Off: g.UnitStart(it.val), Len: g.StripeUnit}
	switch it.kind {
	case 'u':
		var data []byte
		if f.Shape().Mirror {
			resp, err := c.ServerCaller(g.MirrorServerOf(it.val)).Call(
				&wire.ReadMirror{File: ref, Spans: []wire.Span{span}})
			if err != nil {
				return err
			}
			data = resp.(*wire.ReadResp).Data
			if int64(len(data)) != span.Len {
				return fmt.Errorf("short mirror read for unit %d", it.val)
			}
		} else {
			// Reconstruct the unit from parity unit 0 and the other data
			// units: the first parity row of every code is all ones, so unit
			// 0 is the plain XOR parity whatever m is.
			stripe := it.val / int64(g.DataWidth())
			first, count := g.DataUnitsOf(stripe)
			acc := make([]byte, g.StripeUnit)
			presp, err := c.ServerCaller(g.ParityServerOf(stripe)).Call(
				&wire.ReadParity{File: ref, Stripes: []int64{stripe}})
			if err != nil {
				return err
			}
			copy(acc, presp.(*wire.ReadResp).Data)
			for j := 0; j < count; j++ {
				u := first + int64(j)
				if u == it.val {
					continue
				}
				ud, err := readUnitRaw(c, ref, g, u)
				if err != nil {
					return err
				}
				raid.XORInto(acc, ud)
			}
			data = acc
		}
		_, err := c.ServerCaller(dead).Call(&wire.WriteData{
			File: ref, Spans: []wire.Span{span}, Data: data, Raw: true})
		return err
	case 'm':
		resp, err := c.ServerCaller(g.ServerOf(it.val)).Call(
			&wire.Read{File: ref, Spans: []wire.Span{span}, Raw: true})
		if err != nil {
			return err
		}
		_, err = c.ServerCaller(dead).Call(&wire.WriteMirror{
			File: ref, Spans: []wire.Span{span}, Data: resp.(*wire.ReadResp).Data})
		return err
	case 's':
		// The recovering server holds one specific parity unit of this
		// stripe; recompute exactly that row.
		pu, ok := g.ParityUnitOn(dead, it.val)
		if !ok {
			return fmt.Errorf("stripe %d dirty on server %d, which owns none of its parity", it.val, dead)
		}
		acc, err := encodeParityUnit(c, f, it.val, pu)
		if err != nil {
			return err
		}
		_, err = c.ServerCaller(dead).Call(&wire.WriteParity{
			File: ref, Stripes: []int64{it.val}, Data: acc})
		return err
	}
	return fmt.Errorf("unknown dirty item kind %q", it.kind)
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
		if _, err := c.ServerCaller(dead).Call(&wire.WriteOverflow{
			File: ref, Extents: dump.Extents, Data: dump.Data, Mirror: !leg.mirror,
		}); err != nil {
			return n, err
		}
		n += int64(len(dump.Data))
	}
	return n, nil
}
