package client

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"csar/internal/extent"
	"csar/internal/gf256"
	"csar/internal/raid"
	"csar/internal/wire"
)

// readDegraded serves a read while server dead is down, using the file's
// redundancy: the mirror copies, or stripe decoding for a parity shape (plus
// the mirrored overflow region where it has one). tr is the operation's
// trace ID, carried by every RPC the reconstruction issues.
func (f *File) readDegraded(p []byte, off int64, dead int, tr uint64) (int, error) {
	var err error
	switch {
	case f.shape.Mirror:
		err = f.readDegradedMirror(p, off, dead, tr)
	case f.shape.Parity > 0:
		err = f.readDegradedParity(p, off, f.deadSet(dead), tr)
	default:
		err = ErrNoRedundancy
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// deadSet returns the down servers of this file's stripe set plus dead (a
// server that may only just have failed mid-read), in ascending order: a
// stripe with m parity units decodes around up to m of them at once.
func (f *File) deadSet(dead int) []int {
	deads := f.c.allDown(f.ref)
	if !slices.Contains(deads, dead) {
		deads = append(deads, dead)
		slices.Sort(deads)
	}
	return deads
}

// onlyServer is the fetchSpans skip predicate of a single down server.
func onlyServer(dead int) func(int) bool {
	return func(i int) bool { return i == dead }
}

// readDegradedMirror reads a RAID1 file with one server down: the dead
// server's pieces come from its units' mirror copies, which all live on the
// next server.
func (f *File) readDegradedMirror(p []byte, off int64, dead int, tr uint64) error {
	g := f.geom
	span := raid.Span{Off: off, Len: int64(len(p))}

	var mirror *wire.ReadResp
	mirrorSrv := (dead + 1) % g.Servers
	var wg sync.WaitGroup
	var mErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := f.c.callSrvT(mirrorSrv, &wire.ReadMirror{
			File:  f.ref,
			Spans: []wire.Span{{Off: span.Off, Len: span.Len}},
		}, tr)
		if err != nil {
			mErr = err
			return
		}
		mirror = resp.(*wire.ReadResp)
	}()
	reads, err := f.fetchSpans(span, false, tr, onlyServer(dead))
	wg.Wait()
	defer mirror.Release()
	if err != nil {
		return err
	}
	defer reads.release()
	if mErr != nil {
		return mErr
	}

	// Merge: live pieces from their servers, dead pieces from the mirror
	// payload (which is ordered by the same unit walk).
	if want := bytesFor(serverPieces(g, off, span.Len)[dead]); int64(len(mirror.Data)) != want {
		return fmt.Errorf("client: mirror read returned %d bytes, want %d", len(mirror.Data), want)
	}
	var mc int
	mergeFromServers(g, off, p, reads, func(cur, pieceEnd int64) {
		mc += copy(p[cur-off:pieceEnd-off], mirror.Data[mc:])
	})
	return nil
}

// readDegradedParity reads a parity-scheme file with the servers in deads —
// at most the stripe's m parity units' worth — down, in one round: the live
// pieces are fetched as a healthy read fetches them while, concurrently, the
// survivors the dead pieces' decodes need beyond those bytes are fetched
// (degradedPlan). Each dead piece is then decoded straight into its slice of
// p. Where the shape has overflow, the mirrored overflow region then
// overlays any newer partial-stripe data.
func (f *File) readDegradedParity(p []byte, off int64, deads []int, tr uint64) error {
	g := f.geom
	if len(deads) > g.PU() {
		return fmt.Errorf("client: %d servers down exceeds the file's %d-failure tolerance",
			len(deads), g.PU())
	}
	span := raid.Span{Off: off, Len: int64(len(p))}
	// A read of an overflow shape returns overflow-patched bytes, which are
	// not what the stripe's parity encodes: there p is no survivor source,
	// and every survivor is fetched raw in the same round.
	plan, err := f.planDegraded(span, deads, !f.shape.Overflow)
	if err != nil {
		return err
	}
	var survivors spanReads
	var sErr error
	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		survivors, sErr = plan.fetch(f, tr)
	}()
	reads, err := f.fetchSpans(span, false, tr, func(s int) bool { return slices.Contains(deads, s) })
	<-fetched
	defer survivors.release()
	if err = cmp.Or(err, sErr); err != nil {
		reads.release()
		return err
	}
	mergeFromServers(g, off, p, reads, nil)
	reads.release()
	if err := plan.decode(f.code, p, survivors); err != nil {
		return err
	}
	if f.shape.Overflow {
		for _, dead := range deads {
			if err := f.patchFromOverflowMirror(p, off, dead, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// degradedPlan is how one read rebuilds the pieces of its span that lie on
// dead servers, worked out from the geometry alone before any I/O. Each dead
// piece is decoded from the same within-unit range of k surviving units of
// its stripe, taken in code order (data 0..k-1, then parity k..k+m-1, dead
// servers skipped), so live data units — whose identity rows make the decode
// cheapest — are preferred and parity units fill out the set. A survivor
// comes from one of two places:
//
//   - the read's own buffer, when the survivor's range lies inside the span
//     and the buffer holds in-place bytes (a raw read, or a scheme without
//     overflow): those bytes are already there, for free;
//   - otherwise a fetch: one multi-span raw Read per server for data units
//     and one multi-stripe ReadParity per parity server, each stripe asked
//     for once, all sent at the same time.
//
// A decode target never aliases an in-buffer survivor: survivors are taken
// only from units on live servers, targets only from units on dead ones, and
// distinct units hold disjoint logical ranges, hence disjoint buffer slices.
type degradedPlan struct {
	g      raid.Geometry
	off    int64 // the span's offset: buf[0] holds this logical byte
	pieces []deadPiece
	srcs   []survivor    // k per piece, in code order
	raw    [][]wire.Span // by server: the raw Read spans of fetched data survivors
	rawLen []int64       // by server: the bytes those spans return
	parity [][]int64     // by server: the stripes whose parity unit it sends
}

// deadPiece is one piece of the span on a dead server: the logical range
// [cur, end) within one unit, whose code index is target.
type deadPiece struct {
	cur, end int64
	target   int
}

// survivor is one unit's share of a dead piece's decode.
type survivor struct {
	idx  int   // code index
	from int   // the fetched response holding it (see fetch); -1: the buffer
	at   int64 // where the piece's range starts in the buffer or the response
}

// planDegraded plans the decode of every piece of span on a server in deads.
// inBuf says whether the buffer the read lands in holds in-place bytes, and
// so may serve survivors.
func (f *File) planDegraded(span raid.Span, deads []int, inBuf bool) (*degradedPlan, error) {
	g := f.geom
	k, m := g.DataWidth(), g.PU()
	pl := &degradedPlan{
		g: g, off: span.Off,
		raw:    make([][]wire.Span, g.Servers),
		rawLen: make([]int64, g.Servers),
		parity: make([][]int64, g.Servers),
	}
	isDead := func(s int) bool { return slices.Contains(deads, s) }
	var err error
	eachPiece(g, span.Off, span.Len, func(unit, cur, end int64) {
		if err != nil || !isDead(g.ServerOf(unit)) {
			return
		}
		stripe := g.StripeOf(cur)
		first, _ := g.DataUnitsOf(stripe)
		wu, n := cur-g.UnitStart(unit), end-cur // the within-unit range
		pl.pieces = append(pl.pieces, deadPiece{cur, end, int(unit - first)})
		found := 0
		for idx := 0; idx < k+m && found < k; idx++ {
			if idx >= k {
				srv := g.ParityServerOfUnit(stripe, idx-k)
				if !isDead(srv) {
					pl.srcs = append(pl.srcs, survivor{idx, g.Servers + srv, pl.addParity(srv, stripe) + wu})
					found++
				}
				continue
			}
			srv, start := g.ServerOf(first+int64(idx)), g.UnitStart(first+int64(idx))+wu
			switch {
			case isDead(srv):
				continue
			case inBuf && start >= span.Off && start+n <= span.End():
				pl.srcs = append(pl.srcs, survivor{idx, -1, start - span.Off})
			default:
				pl.srcs = append(pl.srcs, survivor{idx, srv, pl.addRaw(srv, start, n)})
			}
			found++
		}
		if found < k {
			err = fmt.Errorf("client: stripe %d has only %d live units, need %d", stripe, found, k)
		}
	})
	return pl, err
}

// addParity asks srv for stripe's parity unit and returns where the unit
// starts in srv's ReadParity response. Pieces are planned in logical order,
// so a stripe asked for twice is the last one asked for.
func (pl *degradedPlan) addParity(srv int, stripe int64) int64 {
	ss := pl.parity[srv]
	if len(ss) == 0 || ss[len(ss)-1] != stripe {
		pl.parity[srv] = append(ss, stripe)
	}
	return int64(len(pl.parity[srv])-1) * pl.g.StripeUnit
}

// addRaw asks srv for the raw bytes [off, off+n) and returns where they start
// in srv's Read response. Two dead pieces of one stripe with the same
// within-unit range (m > 1) are planned back to back and share the fetch.
func (pl *degradedPlan) addRaw(srv int, off, n int64) int64 {
	sp := wire.Span{Off: off, Len: n}
	if ss := pl.raw[srv]; len(ss) == 0 || ss[len(ss)-1] != sp {
		pl.raw[srv] = append(ss, sp)
		pl.rawLen[srv] += n
	}
	return pl.rawLen[srv] - n
}

// fetch sends the plan's survivor reads, all at once, and returns the
// responses: the raw Read from server s at index s, its ReadParity at
// Servers+s. The caller releases them once the decode is done; on error
// there is nothing left to release.
func (pl *degradedPlan) fetch(f *File, tr uint64) (spanReads, error) {
	if len(pl.pieces) == 0 {
		return nil, nil
	}
	n := pl.g.Servers
	out := make(spanReads, 2*n)
	err := f.c.eachServer(2*n, func(i int) error {
		srv := i % n
		var req wire.Msg
		var want int64
		switch {
		case i < n && len(pl.raw[srv]) > 0:
			req = &wire.Read{File: f.ref, Spans: pl.raw[srv], Raw: true}
			want = pl.rawLen[srv]
		case i >= n && len(pl.parity[srv]) > 0:
			req = &wire.ReadParity{File: f.ref, Stripes: pl.parity[srv]}
			want = int64(len(pl.parity[srv])) * pl.g.StripeUnit
		default:
			return nil
		}
		resp, err := f.c.callSrvT(srv, req, tr)
		if err != nil {
			return err
		}
		out[i] = resp.(*wire.ReadResp)
		if int64(len(out[i].Data)) != want {
			return fmt.Errorf("client: survivor read from server %d returned %d bytes, want %d",
				srv, len(out[i].Data), want)
		}
		return nil
	})
	if err != nil {
		out.release()
		return nil, err
	}
	return out, nil
}

// decode rebuilds every dead piece straight into its slice of buf, which
// holds the span, from the survivors in buf and in fetched (fetch's result).
func (pl *degradedPlan) decode(code *gf256.RS, buf []byte, fetched spanReads) error {
	k := code.K
	units := make([][]byte, k+code.M)
	for i, dp := range pl.pieces {
		clear(units)
		n := dp.end - dp.cur
		for _, s := range pl.srcs[i*k : (i+1)*k] {
			src := buf
			if s.from >= 0 {
				src = fetched[s.from].Data
			}
			units[s.idx] = src[s.at : s.at+n]
		}
		if err := code.ReconstructInto(buf[dp.cur-pl.off:dp.end-pl.off], dp.target, units); err != nil {
			return err
		}
	}
	return nil
}

// patchFromOverflowMirror overlays the dead server's overflow contents —
// mirrored on the next server — onto the reconstructed buffer.
func (f *File) patchFromOverflowMirror(p []byte, off int64, dead int, tr uint64) error {
	g := f.geom
	mirrorSrv := (dead + 1) % g.Servers
	resp, err := f.c.callSrvT(mirrorSrv, &wire.OverflowDump{File: f.ref, Mirror: true}, tr)
	if err != nil {
		return err
	}
	dump := resp.(*wire.OverflowDumpResp)
	var m extent.Map
	var cur int64
	for _, e := range dump.Extents {
		m.Insert(e.Off, e.Len, cur)
		cur += e.Len
	}
	if cur > int64(len(dump.Data)) {
		return fmt.Errorf("client: overflow dump short: table %d bytes, data %d", cur, len(dump.Data))
	}
	m.Lookup(off, int64(len(p)), func(logical, src, n int64) {
		copy(p[logical-off:logical-off+n], dump.Data[src:src+n])
	}, nil)
	return nil
}

// reconstructOldPieces fills the dead servers' pieces of old (holding the
// logical range of span, its live pieces already read raw) by running the
// degraded-read plan over it; the degraded read-modify-write uses it, under
// its parity locks, so the parity delta is computed against the dead server's
// true old contents. old holds in-place bytes, so it serves survivors.
func (f *File) reconstructOldPieces(span raid.Span, old []byte, deads []int, tr uint64) error {
	plan, err := f.planDegraded(span, deads, true)
	if err != nil {
		return err
	}
	fetched, err := plan.fetch(f, tr)
	if err != nil {
		return err
	}
	defer fetched.release()
	return plan.decode(f.code, old, fetched)
}
