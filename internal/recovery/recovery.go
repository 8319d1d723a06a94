// Package recovery implements the consumer of CSAR's redundancy: verifying
// that a file's redundant data is consistent, and regenerating what a failed
// server lost from the survivors. Tolerating a single disk failure is the
// paper's stated long-term objective for CSAR; this package is the code path
// that objective pays for.
//
// A parity shape (RAID5, Hybrid, Reed-Solomon) regenerates units through one
// planner, the client's survivor plan (client.File.Reconstruct, the plan the
// degraded read runs): each unit is decoded from k members of its stripe
// outside a dead set, picked in code order and fetched with one raw Read and
// one ReadParity per server. Its three callers differ only in the targets
// and the dead set:
//
//   - Rebuild: every member on the failed server, around that server and
//     every other one a Health probe finds down;
//   - Resync: the members the dirty-region log names, around the same set;
//   - ReplayIntents: the parity unit an abandoned intent distrusts, around
//     all of its stripe's parity servers — so it is encoded from data only.
//
// A mirror shape copies units between a unit's two copies (copyUnits), for
// Rebuild and Resync alike. Hybrid's overflow region and table are restored
// from the overflow mirror on the next server, and its overflow-mirror region
// from the previous server's primary overflow. Verify is the independent
// oracle: it reads with its own reader, never through the planner it checks.
//
// Note the Hybrid invariant that makes this work: the in-place data a
// stripe's parity covers is never updated by a partial-stripe write — new
// bytes go to the overflow region — so parity reconstruction always yields
// the old in-place data, and the overflow mirror then carries the newer
// bytes (Section 4: "the blocks cannot be updated in place because the old
// blocks are needed to reconstruct the data in the stripe").
package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/raid"
	"csar/internal/wire"
)

const (
	// rebuildBatch is how many units (or parity stripes) one reconstruction
	// RPC batch carries: instead of one read and one write per unit, a batch
	// costs one multi-span read per source server and one multi-span write
	// to the replacement.
	rebuildBatch = 32
	// rebuildWorkers bounds how many batches are reconstructed concurrently.
	rebuildWorkers = 4
)

// runBatches runs fn for batch indices [0, n) on a bounded worker pool and
// joins the errors.
func runBatches(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := rebuildWorkers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// chunkInt64 splits vals into batches of rebuildBatch.
func chunkInt64(vals []int64) [][]int64 {
	var out [][]int64
	for len(vals) > rebuildBatch {
		out = append(out, vals[:rebuildBatch])
		vals = vals[rebuildBatch:]
	}
	if len(vals) > 0 {
		out = append(out, vals)
	}
	return out
}

// ownedUnits collects the data units server srv owns within size.
func ownedUnits(g raid.Geometry, srv int, size int64) []int64 {
	var units []int64
	g.UnitsOwnedBy(srv, size, func(b int64) error { //nolint:errcheck // fn never fails
		units = append(units, b)
		return nil
	})
	return units
}

// unitSpans returns each unit's logical span, in order.
func unitSpans(g raid.Geometry, units []int64) []wire.Span {
	spans := make([]wire.Span, len(units))
	for i, b := range units {
		spans[i] = wire.Span{Off: g.UnitStart(b), Len: g.StripeUnit}
	}
	return spans
}

// Rebuild reconstructs server dead's stores for file f onto the replacement
// server now occupying the same slot. The caller must have already replaced
// the failed server with a blank one (and must not mark it up for normal
// use until Rebuild returns).
func Rebuild(c *client.Client, f *client.File, dead int) error {
	g := f.Geometry()
	if dead < 0 || dead >= g.Servers {
		return fmt.Errorf("recovery: server %d out of range", dead)
	}
	size := f.Size()
	if size == 0 {
		return nil
	}
	defer c.ObserveSince("rebuild_pass", time.Now())

	switch s := f.Shape(); {
	case s.Mirror:
		if err := copyUnits(c, f, dead, ownedUnits(g, dead, size), false); err != nil {
			return err
		}
		prev := (dead - 1 + g.Servers) % g.Servers
		return copyUnits(c, f, dead, ownedUnits(g, prev, size), true)
	case s.Parity > 0:
		deads, err := probeDead(c, f, dead)
		if err != nil {
			return err
		}
		all := make([]int64, g.StripesIn(size))
		for i := range all {
			all[i] = int64(i)
		}
		batches := chunkInt64(all)
		if err := runBatches(len(batches), func(i int) error {
			return restoreMembers(c, f, dead, deads, batches[i])
		}); err != nil {
			return err
		}
		if s.Overflow {
			_, err := restoreOverflow(c, f.Ref(), g, dead)
			return err
		}
		return nil
	default:
		return fmt.Errorf("recovery: %w", client.ErrNoRedundancy)
	}
}

// copyUnits restores server dead's copies of a mirror shape's units from
// their other copy, a batch of units per request pair: its data units from
// their mirrors on the next server, or (toMirror) its mirrors of the previous
// server's units from those units' primaries.
func copyUnits(c *client.Client, f *client.File, dead int, units []int64, toMirror bool) error {
	g := f.Geometry()
	ref := f.Ref()
	batches := chunkInt64(units)
	return runBatches(len(batches), func(i int) error {
		spans := unitSpans(g, batches[i])
		from, read := (dead+1)%g.Servers, wire.Msg(&wire.ReadMirror{File: ref, Spans: spans})
		if toMirror {
			from, read = (dead-1+g.Servers)%g.Servers, &wire.Read{File: ref, Spans: spans, Raw: true}
		}
		resp, err := c.ServerCaller(from).Call(read)
		if err != nil {
			return err
		}
		data := resp.(*wire.ReadResp).Data
		if int64(len(data)) != int64(len(spans))*g.StripeUnit {
			return fmt.Errorf("recovery: short copy read from server %d (units %v)", from, batches[i])
		}
		write := wire.Msg(&wire.WriteData{File: ref, Spans: spans, Data: data, Raw: true})
		if toMirror {
			write = &wire.WriteMirror{File: ref, Spans: spans, Data: data}
		}
		_, err = c.ServerCaller(dead).Call(write)
		return err
	})
}

// probeDead returns the servers a repair of server dead decodes around: dead
// itself and every other server of f that the client holds down or that
// does not answer a Health probe. The set is decided up front by probing,
// not by the client's circuit breaker: a fresh process (the CLI) has no
// breaker history, and a second dead server must be discovered before the
// batched reads, not by failing them. Anything short of k survivors cannot
// decode.
func probeDead(c *client.Client, f *client.File, dead int) ([]int, error) {
	g := f.Geometry()
	deads := []int{dead}
	for srv := 0; srv < g.Servers; srv++ {
		if srv == dead {
			continue
		}
		if c.Down(srv) {
			deads = append(deads, srv)
		} else if _, err := c.ServerCaller(srv).Call(&wire.Health{}); err != nil {
			deads = append(deads, srv)
		}
	}
	if live, k := g.Servers-len(deads), g.DataWidth(); live < k {
		return nil, fmt.Errorf("recovery: only %d of %d servers reachable, need %d to decode RS(%d, %d)",
			live, g.Servers, k, k, g.PU())
	}
	return deads, nil
}

// rawCall sends the survivor planner's reads straight to each server's
// caller: no retries, no breaker admission, no modeled CPU charge.
func rawCall(c *client.Client) client.CallFunc {
	return func(srv int, req wire.Msg) (wire.Msg, error) { return c.ServerCaller(srv).Call(req) }
}

// restoreMembers regenerates server dead's member of each of stripes — with
// k+m servers it holds exactly one unit of every stripe — through the
// client's survivor planner, around the servers in deads, and writes them
// back: one raw WriteData for the data members and one WriteParity for the
// parity members. A batch costs one raw Read and one ReadParity per server
// that serves any of its survivors, each stripe decoded from k of them.
func restoreMembers(c *client.Client, f *client.File, dead int, deads []int, stripes []int64) error {
	g := f.Geometry()
	ref := f.Ref()
	k, su := g.DataWidth(), g.StripeUnit
	// Data members first, so each kind's payload is one contiguous run.
	var data, par []client.Unit
	var spans []wire.Span
	var pStripes []int64
	for _, s := range stripes {
		u := client.Unit{Stripe: s, Idx: g.MemberOn(dead, s)}
		if u.Idx < k {
			first, _ := g.DataUnitsOf(s)
			data = append(data, u)
			spans = append(spans, wire.Span{Off: g.UnitStart(first + int64(u.Idx)), Len: su})
		} else {
			par = append(par, u)
			pStripes = append(pStripes, s)
		}
	}
	buf := make([]byte, int64(len(stripes))*su)
	if err := f.Reconstruct(buf, append(data, par...), deads, rawCall(c)); err != nil {
		return err
	}
	nd := int64(len(data)) * su
	if len(spans) > 0 {
		if _, err := c.ServerCaller(dead).Call(&wire.WriteData{
			File: ref, Spans: spans, Data: buf[:nd], Raw: true}); err != nil {
			return err
		}
	}
	if len(pStripes) > 0 {
		if _, err := c.ServerCaller(dead).Call(&wire.WriteParity{
			File: ref, Stripes: pStripes, Data: buf[nd:]}); err != nil {
			return err
		}
	}
	return nil
}

// readStripeData reads the k data units of one stripe, in place and whole,
// live from their servers, one request per unit: Verify's own reader, kept
// apart from the survivor planner so the oracle does not share its code.
func readStripeData(c *client.Client, f *client.File, stripe int64) ([][]byte, error) {
	g := f.Geometry()
	first, count := g.DataUnitsOf(stripe)
	data := make([][]byte, count)
	for i := range data {
		b := first + int64(i)
		span := wire.Span{Off: g.UnitStart(b), Len: g.StripeUnit}
		resp, err := c.ServerCaller(g.ServerOf(b)).Call(&wire.Read{File: f.Ref(), Spans: []wire.Span{span}, Raw: true})
		if err != nil {
			return nil, err
		}
		if data[i] = resp.(*wire.ReadResp).Data; int64(len(data[i])) != g.StripeUnit {
			return nil, fmt.Errorf("recovery: short unit read (unit %d)", b)
		}
	}
	return data, nil
}

// Verify checks a file's redundancy invariants and returns a description of
// every violation found (empty means consistent). It is the fsck of CSAR.
func Verify(c *client.Client, f *client.File) ([]string, error) {
	g := f.Geometry()
	ref := f.Ref()
	size := f.Size()
	var problems []string
	if size == 0 {
		return nil, nil
	}

	switch s := f.Shape(); {
	case s.Mirror:
		lastUnit := g.UnitOf(size - 1)
		for b := int64(0); b <= lastUnit; b++ {
			span := wire.Span{Off: g.UnitStart(b), Len: g.StripeUnit}
			prim, err := c.ServerCaller(g.ServerOf(b)).Call(&wire.Read{File: ref, Spans: []wire.Span{span}, Raw: true})
			if err != nil {
				return nil, err
			}
			mir, err := c.ServerCaller(g.MirrorServerOf(b)).Call(&wire.ReadMirror{File: ref, Spans: []wire.Span{span}})
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(prim.(*wire.ReadResp).Data, mir.(*wire.ReadResp).Data) {
				problems = append(problems, fmt.Sprintf("unit %d: mirror differs from primary", b))
			}
		}
	case s.Parity > 0:
		// Byte for byte: every parity unit must equal the encoding of the
		// stripe's k data units under its coefficient row.
		want := make([][]byte, g.PU())
		for j := range want {
			want[j] = make([]byte, g.StripeUnit)
		}
		for s := int64(0); s <= g.StripeOf(size-1); s++ {
			data, err := readStripeData(c, f, s)
			if err != nil {
				return nil, err
			}
			f.Code().EncodeInto(want, data)
			for j := range want {
				presp, err := c.ServerCaller(g.ParityServerOfUnit(s, j)).Call(
					&wire.ReadParity{File: ref, Stripes: []int64{s}})
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(want[j], presp.(*wire.ReadResp).Data) {
					problems = append(problems, fmt.Sprintf(
						"stripe %d: parity unit %d does not match data", s, j))
				}
			}
		}
		if s.Overflow {
			ovProblems, err := verifyOverflowMirrors(c, f)
			if err != nil {
				return nil, err
			}
			problems = append(problems, ovProblems...)
		}
	}
	return problems, nil
}

// verifyOverflowMirrors checks that every server's primary overflow table
// and contents match the mirror copy on the next server.
func verifyOverflowMirrors(c *client.Client, f *client.File) ([]string, error) {
	g := f.Geometry()
	ref := f.Ref()
	var problems []string
	for i := 0; i < g.Servers; i++ {
		next := (i + 1) % g.Servers
		presp, err := c.ServerCaller(i).Call(&wire.OverflowDump{File: ref})
		if err != nil {
			return nil, err
		}
		mresp, err := c.ServerCaller(next).Call(&wire.OverflowDump{File: ref, Mirror: true})
		if err != nil {
			return nil, err
		}
		p := presp.(*wire.OverflowDumpResp)
		m := mresp.(*wire.OverflowDumpResp)
		if len(p.Extents) != len(m.Extents) {
			problems = append(problems, fmt.Sprintf(
				"server %d: overflow table has %d extents, mirror on %d has %d",
				i, len(p.Extents), next, len(m.Extents)))
			continue
		}
		for k := range p.Extents {
			if p.Extents[k] != m.Extents[k] {
				problems = append(problems, fmt.Sprintf(
					"server %d: overflow extent %d differs from mirror", i, k))
			}
		}
		if !bytes.Equal(p.Data, m.Data) {
			problems = append(problems, fmt.Sprintf(
				"server %d: overflow contents differ from mirror", i))
		}
	}
	return problems, nil
}
