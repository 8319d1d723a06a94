// Package recovery implements the consumer of CSAR's redundancy: verifying
// that a file's redundant data is consistent, and regenerating what a failed
// server lost from the survivors. Tolerating a single disk failure is the
// paper's stated long-term objective for CSAR; this package is the code path
// that objective pays for.
//
// Every redundant shape regenerates members of its code groups (raid.Layout)
// through one planner, the client's survivor plan (client.File.Reconstruct,
// the plan the degraded read runs): each member is decoded from k members of
// its group outside a dead set, picked in code order and fetched with one
// Read of each server's data store and one of its redundancy store. A parity
// shape's group is a stripe; a mirror's is one unit and its copy, the
// repetition code RS(1, 1), whose decode is a copy. The three callers differ
// only in the targets and the dead set:
//
//   - Rebuild: every member on the failed server, around that server and
//     every other one a Health probe finds down;
//   - Resync: the members the dirty-region log names, around the same set;
//   - ReplayIntents: the parity unit an abandoned intent distrusts, around
//     all of its stripe's parity servers — so it is encoded from data only.
//
// Hybrid's overflow region and table are restored from the overflow mirror
// on the next server, and its overflow-mirror region from the previous
// server's primary overflow. Verify is the independent oracle: it reads with
// its own reader, never through the planner it checks.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/client"
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

// Rebuild reconstructs server dead's stores for file f onto the replacement
// server now occupying the same slot. The caller must have already replaced
// the failed server with a blank one (and must not mark it up for normal
// use until Rebuild returns). Every group in which dead holds a member is
// regenerated, in batches, around dead and every other server found down.
func Rebuild(c *client.Client, f *client.File, dead int) error {
	l := f.Layout()
	if dead < 0 || dead >= l.Servers {
		return fmt.Errorf("recovery: server %d out of range", dead)
	}
	size := f.Size()
	if size == 0 {
		return nil
	}
	if l.Tolerates() == 0 {
		return fmt.Errorf("recovery: %w", client.ErrNoRedundancy)
	}
	defer c.ObserveSince("rebuild_pass", time.Now())

	deads, err := probeDead(c, f, dead)
	if err != nil {
		return err
	}
	batches := chunkInt64(l.GroupsHeldBy(dead, size))
	if err := runBatches(len(batches), func(i int) error {
		return restoreMembers(c, f, dead, deads, batches[i])
	}); err != nil {
		return err
	}
	if l.Overflow {
		_, err := restoreOverflow(c, f.Ref(), l.Geometry, dead)
		return err
	}
	return nil
}

// probeDead returns the servers a repair of server dead decodes around: dead
// itself and every other server of f that the client holds down or that
// does not answer a Health probe. The set is decided up front by probing,
// not by the client's circuit breaker: a fresh process (the CLI) has no
// breaker history, and a second dead server must be discovered before the
// batched reads, not by failing them. Anything short of k survivors cannot
// decode.
func probeDead(c *client.Client, f *client.File, dead int) ([]int, error) {
	l := f.Layout()
	deads := []int{dead}
	for srv := 0; srv < l.Servers; srv++ {
		if srv == dead {
			continue
		}
		if c.Down(srv) {
			deads = append(deads, srv)
		} else if _, err := c.ServerCaller(srv).Call(&wire.Health{}); err != nil {
			deads = append(deads, srv)
		}
	}
	if k, r := l.GroupSize(); l.Servers-len(deads) < k {
		return nil, fmt.Errorf("recovery: only %d of %d servers reachable, need %d to decode RS(%d, %d)",
			l.Servers-len(deads), l.Servers, k, k, r)
	}
	return deads, nil
}

// rawCall sends the survivor planner's reads straight to each server's
// caller: no retries, no breaker admission, no modeled CPU charge.
func rawCall(c *client.Client) client.CallFunc {
	return func(srv int, req wire.Msg) (wire.Msg, error) { return c.ServerCaller(srv).Call(req) }
}

// restoreMembers regenerates server dead's member of each of groups through
// the client's survivor planner, around the servers in deads, and writes them
// back with one WriteData per store: raw for data members, so newer overflow
// contents stay, and installed for parity members. A batch costs one Read of
// each store per server that serves any of its survivors, each member
// decoded from k of them.
func restoreMembers(c *client.Client, f *client.File, dead int, deads []int, groups []int64) error {
	l := f.Layout()
	su := l.StripeUnit
	// By store, in store order, so each store's payload is one contiguous run.
	var units [wire.StoreParity + 1][]client.Unit
	var spans [wire.StoreParity + 1][]wire.Span
	for _, g := range groups {
		i, _ := l.MemberHeldBy(dead, g)
		m := l.GroupMember(g, i)
		units[m.Store] = append(units[m.Store], client.Unit{Group: g, Member: i})
		spans[m.Store] = append(spans[m.Store], wire.Span{Off: l.UnitStart(m.Unit), Len: su})
	}
	buf := make([]byte, int64(len(groups))*su)
	if err := f.Reconstruct(buf, slices.Concat(units[:]...), deads, rawCall(c)); err != nil {
		return err
	}
	var at int64
	for st, us := range units {
		if len(us) == 0 {
			continue
		}
		data := buf[at : at+int64(len(us))*su]
		at += int64(len(data))
		store := uint8(st)
		req := &wire.WriteData{File: f.Ref(), Store: store, Spans: spans[st], Data: data, Raw: store == wire.StoreData}
		if _, err := c.ServerCaller(dead).Call(req); err != nil {
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
// Like a scrub pass, it first sends this client's watermark, so the servers
// hold none of its completed updates pending past the check.
func Verify(c *client.Client, f *client.File) ([]string, error) {
	c.FlushRetires()
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
			mir, err := c.ServerCaller(g.MirrorServerOf(b)).Call(&wire.Read{File: ref, Store: wire.StoreMirror, Spans: []wire.Span{span}})
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
				presp, err := c.ServerCaller(g.ParityServerOfUnit(s, j)).Call(&wire.Read{
					File: ref, Store: wire.StoreParity, Spans: []wire.Span{{Off: g.UnitStart(s), Len: g.StripeUnit}}})
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
