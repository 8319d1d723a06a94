package client

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"csar/internal/extent"
	"csar/internal/raid"
	"csar/internal/wire"
)

// readDegraded serves a read while server dead is down, using the file's
// redundancy: the mirror for RAID1, stripe decoding for the parity schemes
// (plus the mirrored overflow region for Hybrid). tr is the operation's
// trace ID, carried by every RPC the reconstruction issues.
func (f *File) readDegraded(p []byte, off int64, dead int, tr uint64) (int, error) {
	var err error
	switch {
	case f.ref.Scheme == wire.Raid1:
		err = f.readDegradedMirror(p, off, dead, tr)
	case f.code != nil:
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
// at most the stripe's m parity units' worth — down. Live pieces are read
// normally; each piece on a dead server is rebuilt from any k surviving units
// of its stripe; under Hybrid, the mirrored overflow region then overlays any
// newer partial-stripe data.
func (f *File) readDegradedParity(p []byte, off int64, deads []int, tr uint64) error {
	g := f.geom
	if len(deads) > g.PU() {
		return fmt.Errorf("client: %d servers down exceeds the file's %d-failure tolerance",
			len(deads), g.PU())
	}
	span := raid.Span{Off: off, Len: int64(len(p))}
	reads, err := f.fetchSpans(span, false, tr, func(s int) bool { return slices.Contains(deads, s) })
	if err != nil {
		return err
	}

	// Copy the live pieces; the dead ones are reconstructed below.
	type deadPiece struct{ cur, pieceEnd int64 }
	var pieces []deadPiece
	mergeFromServers(g, off, p, reads, func(cur, pieceEnd int64) {
		pieces = append(pieces, deadPiece{cur, pieceEnd})
	})
	reads.release()

	errs := make([]error, len(pieces))
	var wg sync.WaitGroup
	for i, dp := range pieces {
		wg.Add(1)
		go func(i int, dp deadPiece) {
			defer wg.Done()
			errs[i] = f.reconstructRange(p[dp.cur-off:dp.pieceEnd-off], dp.cur, deads, tr)
		}(i, dp)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if f.ref.Scheme == wire.Hybrid {
		for _, dead := range deads {
			if err := f.patchFromOverflowMirror(p, off, dead, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// reconstructRange rebuilds dst, the in-place contents of the logical range
// [logical, logical+len(dst)) — which must lie within a single stripe unit
// owned by a dead server — by decoding the stripe from any k of its
// surviving units. Live data units are preferred as survivors (their
// identity rows make the decode cheapest); live parity units fill out the
// set when data units are among the dead. With one parity unit that is the
// RAID5 reconstruction: the k-1 other data units and the parity, XORed.
func (f *File) reconstructRange(dst []byte, logical int64, deads []int, tr uint64) error {
	g := f.geom
	k := g.DataWidth()
	m := g.PU()
	n := int64(len(dst))
	unit := g.UnitOf(logical)
	wu := logical - g.UnitStart(unit) // within-unit offset
	stripe := unit / int64(k)
	first, _ := g.DataUnitsOf(stripe)
	target := int(unit - first)
	isDead := func(s int) bool { return slices.Contains(deads, s) }
	if !isDead(g.ServerOf(unit)) {
		return fmt.Errorf("client: reconstructRange on live unit %d", unit)
	}

	// Choose the first k live units in code order (data 0..k-1, then parity
	// k..k+m-1) and fetch the same within-unit range of each.
	type fetch struct {
		idx, srv int
		parity   bool
	}
	var fetches []fetch
	for i := 0; i < k+m && len(fetches) < k; i++ {
		ft := fetch{idx: i, parity: i >= k}
		if ft.parity {
			ft.srv = g.ParityServerOfUnit(stripe, i-k)
		} else {
			ft.srv = g.ServerOf(first + int64(i))
		}
		if !isDead(ft.srv) {
			fetches = append(fetches, ft)
		}
	}
	if len(fetches) < k {
		return fmt.Errorf("client: stripe %d has only %d live units, need %d",
			stripe, len(fetches), k)
	}

	units := make([][]byte, k+m)
	// The survivors decode in place out of their responses' buffers, which
	// go back once dst has been copied out.
	resps := make(spanReads, len(fetches))
	defer resps.release()
	errs := make([]error, len(fetches))
	var wg sync.WaitGroup
	for i, ft := range fetches {
		wg.Add(1)
		go func(i int, ft fetch) {
			defer wg.Done()
			var req wire.Msg
			want, at := n, int64(0) // the response's length, and where the range starts in it
			if ft.parity {
				req = &wire.ReadParity{File: f.ref, Stripes: []int64{stripe}}
				want, at = g.StripeUnit, wu
			} else {
				req = &wire.Read{File: f.ref, Raw: true,
					Spans: []wire.Span{{Off: g.UnitStart(first+int64(ft.idx)) + wu, Len: n}}}
			}
			resp, err := f.c.callSrvT(ft.srv, req, tr)
			if err != nil {
				errs[i] = err
				return
			}
			resps[i] = resp.(*wire.ReadResp)
			if int64(len(resps[i].Data)) != want {
				errs[i] = fmt.Errorf("client: short survivor read from server %d", ft.srv)
				return
			}
			units[ft.idx] = resps[i].Data[at : at+n]
		}(i, ft)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := f.code.Reconstruct(units); err != nil {
		return err
	}
	copy(dst, units[target])
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
// logical range of span) by decoding them from each stripe's survivors; the
// degraded read-modify-write uses it so the parity delta is computed against
// the dead server's true old contents.
func (f *File) reconstructOldPieces(span raid.Span, old []byte, deads []int, tr uint64) error {
	var err error
	eachPiece(f.geom, span.Off, span.Len, func(unit, cur, pieceEnd int64) {
		if err == nil && slices.Contains(deads, f.geom.ServerOf(unit)) {
			err = f.reconstructRange(old[cur-span.Off:pieceEnd-span.Off], cur, deads, tr)
		}
	})
	return err
}
