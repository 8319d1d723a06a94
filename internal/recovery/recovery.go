// Package recovery implements the consumer of CSAR's redundancy: verifying
// that a file's redundant data is consistent, and rebuilding a failed
// server's stores from the survivors. Tolerating a single disk failure is
// the paper's stated long-term objective for CSAR; this package is the code
// path that objective pays for.
//
// Rebuild reconstructs, onto a blank replacement server:
//
//   - its data and mirror files (RAID1), from the mirror on the next server
//     and the previous server's units;
//   - its data and parity files (RAID5, Hybrid, Reed-Solomon), by decoding
//     the one unit it holds of every stripe from that stripe's survivors;
//   - its overflow region and table (Hybrid), from the overflow mirror on
//     the next server, and its overflow-mirror region from the previous
//     server's primary overflow.
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

// stripeSpans returns each stripe's whole logical span, in order.
func stripeSpans(g raid.Geometry, stripes []int64) []wire.Span {
	spans := make([]wire.Span, len(stripes))
	for i, s := range stripes {
		spans[i] = wire.Span{Off: g.StripeStart(s), Len: g.StripeSize()}
	}
	return spans
}

// Rebuild reconstructs server dead's stores for file f onto the replacement
// server now occupying the same slot. The caller must have already replaced
// the failed server with a blank one (and must not mark it up for normal
// use until Rebuild returns).
func Rebuild(c *client.Client, f *client.File, dead int) error {
	g := f.Geometry()
	ref := f.Ref()
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
		if err := rebuildDataFromMirror(c, f, dead, size); err != nil {
			return err
		}
		return rebuildMirror(c, f, dead, size)
	case s.Parity > 0:
		if err := rebuildStripes(c, f, dead, size); err != nil {
			return err
		}
		if s.Overflow {
			_, err := restoreOverflow(c, ref, g, dead)
			return err
		}
		return nil
	default:
		return fmt.Errorf("recovery: %w", client.ErrNoRedundancy)
	}
}

// rebuildDataFromMirror restores a RAID1 data file from the mirror copies
// on the next server, a batch of units per round trip.
func rebuildDataFromMirror(c *client.Client, f *client.File, dead int, size int64) error {
	g := f.Geometry()
	ref := f.Ref()
	mirrorSrv := (dead + 1) % g.Servers
	batches := chunkInt64(ownedUnits(g, dead, size))
	return runBatches(len(batches), func(i int) error {
		spans := unitSpans(g, batches[i])
		resp, err := c.ServerCaller(mirrorSrv).Call(&wire.ReadMirror{File: ref, Spans: spans})
		if err != nil {
			return err
		}
		data := resp.(*wire.ReadResp).Data
		if int64(len(data)) != int64(len(spans))*g.StripeUnit {
			return fmt.Errorf("recovery: short mirror read (units %v)", batches[i])
		}
		_, err = c.ServerCaller(dead).Call(&wire.WriteData{File: ref, Spans: spans, Data: data, Raw: true})
		return err
	})
}

// rebuildMirror restores the mirror file on the dead server: it holds the
// mirror copies of the previous server's units, re-read from their primary
// a batch at a time.
func rebuildMirror(c *client.Client, f *client.File, dead int, size int64) error {
	g := f.Geometry()
	ref := f.Ref()
	prev := (dead - 1 + g.Servers) % g.Servers
	batches := chunkInt64(ownedUnits(g, prev, size))
	return runBatches(len(batches), func(i int) error {
		spans := unitSpans(g, batches[i])
		resp, err := c.ServerCaller(prev).Call(&wire.Read{File: ref, Spans: spans, Raw: true})
		if err != nil {
			return err
		}
		data := resp.(*wire.ReadResp).Data
		_, err = c.ServerCaller(dead).Call(&wire.WriteMirror{File: ref, Spans: spans, Data: data})
		return err
	})
}

// readUnitRaw reads one whole unit's in-place contents from its server.
func readUnitRaw(c *client.Client, ref wire.FileRef, g raid.Geometry, b int64) ([]byte, error) {
	span := wire.Span{Off: g.UnitStart(b), Len: g.StripeUnit}
	resp, err := c.ServerCaller(g.ServerOf(b)).Call(&wire.Read{File: ref, Spans: []wire.Span{span}, Raw: true})
	if err != nil {
		return nil, err
	}
	data := resp.(*wire.ReadResp).Data
	if int64(len(data)) != g.StripeUnit {
		return nil, fmt.Errorf("recovery: short unit read (unit %d)", b)
	}
	return data, nil
}

// dataIndexOn returns the code index (0..k-1) of the data unit of stripe s
// held by server srv. Only meaningful when srv holds no parity unit of s:
// with k+m servers, every server holds exactly one unit per stripe.
func dataIndexOn(g raid.Geometry, srv int, s int64) int {
	n := int64(g.Servers)
	first, _ := g.DataUnitsOf(s)
	return int(((int64(srv)-first)%n + n) % n)
}

// rebuildStripes reconstructs server dead's data and parity units for every
// stripe of a parity-scheme file. A stripe of k data and m parity units
// occupies all N = k+m servers — every server holds exactly one unit of
// every stripe — so rebuilding a server means re-deriving its one unit per
// stripe from k of the survivors: the first k live units in code order, data
// before parity, so each stripe costs k unit reads, not N-1 (for the single
// parity unit of RAID5 and Hybrid the two are the same). A batch of stripes
// costs one multi-span raw Read and one multi-stripe ReadParity per server
// that serves any of its stripes, the decodes — each straight into the
// outgoing payload — and one write of each kind to the replacement. Servers
// other than dead that are down are simply excluded from the survivor set: a
// rebuild can proceed while up to m-1 other servers are still out.
func rebuildStripes(c *client.Client, f *client.File, dead int, size int64) error {
	g := f.Geometry()
	ref := f.Ref()
	code := f.Code()
	su := g.StripeUnit
	k := g.DataWidth()
	m := g.PU()

	// The survivor set is decided up front by probing, not by the client's
	// circuit breaker: a fresh process (the CLI) has no breaker history, and
	// a second dead server must be discovered before the batched reads, not
	// by failing them. Anything short of k survivors cannot decode.
	excluded := make([]bool, g.Servers)
	live := 0
	for srv := 0; srv < g.Servers; srv++ {
		if srv == dead {
			continue
		}
		if c.Down(srv) {
			excluded[srv] = true
			continue
		}
		if _, err := c.ServerCaller(srv).Call(&wire.Health{}); err != nil {
			excluded[srv] = true
			continue
		}
		live++
	}
	if live < k {
		return fmt.Errorf("recovery: only %d of %d servers reachable, need %d to decode RS(%d, %d)",
			live, g.Servers, k, k, m)
	}
	// srvOf is the server holding unit idx (code order) of stripe s.
	srvOf := func(s int64, idx int) int {
		if idx < k {
			first, _ := g.DataUnitsOf(s)
			return g.ServerOf(first + int64(idx))
		}
		return g.ParityServerOfUnit(s, idx-k)
	}

	all := make([]int64, g.StripesIn(size))
	for i := range all {
		all[i] = int64(i)
	}
	batches := chunkInt64(all)
	return runBatches(len(batches), func(bi int) error {
		batch := batches[bi]
		// Each stripe's k survivors, as (code index, slot of the response
		// holding it, position there); what each server is asked for; and
		// each stripe's dead unit: its code index and where it goes.
		type source struct {
			idx, from int
			at        int64
		}
		srcs := make([]source, 0, len(batch)*k)
		dSpans := make([][]wire.Span, g.Servers)
		pStripes := make([][]int64, g.Servers)
		targets := make([]int, len(batch))
		var dOut []wire.Span
		var pOut []int64
		for pos, s := range batch {
			first, _ := g.DataUnitsOf(s)
			found := 0
			for idx := 0; idx < k+m && found < k; idx++ {
				srv := srvOf(s, idx)
				if srv == dead || excluded[srv] {
					continue
				}
				found++
				if idx < k {
					srcs = append(srcs, source{idx, srv, int64(len(dSpans[srv])) * su})
					dSpans[srv] = append(dSpans[srv], wire.Span{Off: g.UnitStart(first + int64(idx)), Len: su})
				} else {
					srcs = append(srcs, source{idx, g.Servers + srv, int64(len(pStripes[srv])) * su})
					pStripes[srv] = append(pStripes[srv], s)
				}
			}
			if j, ok := g.ParityUnitOn(dead, s); ok {
				targets[pos] = k + j
				pOut = append(pOut, s)
			} else {
				targets[pos] = dataIndexOn(g, dead, s)
				dOut = append(dOut, wire.Span{Off: g.UnitStart(first + int64(targets[pos])), Len: su})
			}
		}

		// got[srv] is srv's raw Read response, got[N+srv] its ReadParity
		// response. The survivors decode out of their pooled buffers, which go
		// back once every dead unit has been decoded.
		got := make([][]byte, 2*g.Servers)
		for i := range got {
			srv := i % g.Servers
			req, units := wire.Msg(&wire.Read{File: ref, Spans: dSpans[srv], Raw: true}), len(dSpans[srv])
			if i >= g.Servers {
				req, units = &wire.ReadParity{File: ref, Stripes: pStripes[srv]}, len(pStripes[srv])
			}
			if units == 0 {
				continue
			}
			resp, err := c.ServerCaller(srv).Call(req)
			if err != nil {
				return err
			}
			r := resp.(*wire.ReadResp)
			defer r.Release()
			if int64(len(r.Data)) != int64(units)*su {
				return fmt.Errorf("recovery: short survivor read from server %d", srv)
			}
			got[i] = r.Data
		}

		// Decode each stripe's dead unit straight into the outgoing payload of
		// its kind. With every data unit among the survivors (the usual case
		// for a dead parity unit) the decode row is the parity row itself:
		// EncodeUnitInto's sum.
		dData := make([]byte, int64(len(dOut))*su)
		pData := make([]byte, int64(len(pOut))*su)
		units := make([][]byte, k+m)
		var nd, np int64
		for pos, s := range batch {
			clear(units)
			for _, src := range srcs[pos*k : (pos+1)*k] {
				units[src.idx] = got[src.from][src.at : src.at+su]
			}
			var dst []byte
			if targets[pos] >= k {
				dst = pData[np*su : (np+1)*su]
				np++
			} else {
				dst = dData[nd*su : (nd+1)*su]
				nd++
			}
			if err := code.ReconstructInto(dst, targets[pos], units); err != nil {
				return fmt.Errorf("recovery: stripe %d: %w", s, err)
			}
		}
		if len(dOut) > 0 {
			if _, err := c.ServerCaller(dead).Call(&wire.WriteData{
				File: ref, Spans: dOut, Data: dData, Raw: true}); err != nil {
				return err
			}
		}
		if len(pOut) > 0 {
			if _, err := c.ServerCaller(dead).Call(&wire.WriteParity{
				File: ref, Stripes: pOut, Data: pData}); err != nil {
				return err
			}
		}
		return nil
	})
}

// readStripeData reads the k data units of one stripe, in place and whole,
// live from their servers.
func readStripeData(c *client.Client, f *client.File, stripe int64) ([][]byte, error) {
	g := f.Geometry()
	first, count := g.DataUnitsOf(stripe)
	data := make([][]byte, count)
	for i := range data {
		d, err := readUnitRaw(c, f.Ref(), g, first+int64(i))
		if err != nil {
			return nil, err
		}
		data[i] = d
	}
	return data, nil
}

// encodeParityUnit recomputes parity unit j of one stripe from its data
// units as the servers hold them now. Used by resync.
func encodeParityUnit(c *client.Client, f *client.File, stripe int64, j int) ([]byte, error) {
	data, err := readStripeData(c, f, stripe)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.Geometry().StripeUnit)
	f.Code().EncodeUnitInto(j, out, data)
	return out, nil
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
