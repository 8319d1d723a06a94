package client

import (
	"fmt"
	"sync"

	"csar/internal/extent"
	"csar/internal/raid"
	"csar/internal/wire"
)

// readDegraded serves a read while server dead is down, using the file's
// redundancy: the mirror for RAID1, parity reconstruction for RAID5, and
// parity reconstruction plus the mirrored overflow region for Hybrid.
func (f *File) readDegraded(p []byte, off int64, dead int) (int, error) {
	switch f.ref.Scheme {
	case wire.Raid0:
		return 0, ErrNoRedundancy
	case wire.Raid1:
		if err := f.readDegradedMirror(p, off, dead); err != nil {
			return 0, err
		}
		return len(p), nil
	case wire.Raid5, wire.Raid5NoLock, wire.Raid5NPC:
		if err := f.readDegradedParity(p, off, dead, false); err != nil {
			return 0, err
		}
		return len(p), nil
	case wire.Hybrid:
		if err := f.readDegradedParity(p, off, dead, true); err != nil {
			return 0, err
		}
		return len(p), nil
	case wire.ReedSolomon:
		// Up to the file's ParityUnits servers may be down at once; the
		// RS path unions every down server with the one just reported.
		if err := f.readDegradedRS(p, off, dead); err != nil {
			return 0, err
		}
		return len(p), nil
	default:
		return 0, fmt.Errorf("client: degraded read unsupported for scheme %v", f.ref.Scheme)
	}
}

// onlyServer is the fetchSpans skip predicate of a single down server.
func onlyServer(dead int) func(int) bool {
	return func(i int) bool { return i == dead }
}

// readDegradedMirror reads a RAID1 file with one server down: the dead
// server's pieces come from its units' mirror copies, which all live on the
// next server.
func (f *File) readDegradedMirror(p []byte, off int64, dead int) error {
	g := f.geom
	span := raid.Span{Off: off, Len: int64(len(p))}

	var mirror *wire.ReadResp
	mirrorSrv := (dead + 1) % g.Servers
	var wg sync.WaitGroup
	var mErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := f.c.callSrv(mirrorSrv, &wire.ReadMirror{
			File:  f.ref,
			Spans: []wire.Span{{Off: span.Off, Len: span.Len}},
		})
		if err != nil {
			mErr = err
			return
		}
		mirror = resp.(*wire.ReadResp)
	}()
	reads, err := f.fetchSpans(span, false, 0, onlyServer(dead))
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

// readDegradedParity reads a RAID5 or Hybrid file with one server down. The
// dead server's pieces are rebuilt from the surviving data units and parity
// of each affected stripe; under Hybrid, the mirrored overflow region then
// overlays any newer partial-stripe data.
func (f *File) readDegradedParity(p []byte, off int64, dead int, hybrid bool) error {
	g := f.geom
	span := raid.Span{Off: off, Len: int64(len(p))}

	reads, err := f.fetchSpans(span, false, 0, onlyServer(dead))
	if err != nil {
		return err
	}

	// Copy the live pieces; the dead ones are reconstructed below.
	type deadPiece struct{ cur, pieceEnd int64 }
	var deads []deadPiece
	mergeFromServers(g, off, p, reads, func(cur, pieceEnd int64) {
		deads = append(deads, deadPiece{cur, pieceEnd})
	})
	reads.release()

	errs := make([]error, len(deads))
	var wg sync.WaitGroup
	for i, dp := range deads {
		wg.Add(1)
		go func(i int, dp deadPiece) {
			defer wg.Done()
			errs[i] = f.reconstructRange(p[dp.cur-off:dp.pieceEnd-off], dp.cur, dead)
		}(i, dp)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}

	if hybrid {
		return f.patchFromOverflowMirror(p, off, dead)
	}
	return nil
}

// reconstructRange rebuilds dst, the in-place contents of the logical range
// [logical, logical+len(dst)) — which must lie within a single stripe unit
// owned by the dead server — from the stripe's surviving units and parity.
func (f *File) reconstructRange(dst []byte, logical int64, dead int) error {
	g := f.geom
	n := int64(len(dst))
	unit := g.UnitOf(logical)
	if g.ServerOf(unit) != dead {
		return fmt.Errorf("client: reconstructRange on live unit %d", unit)
	}
	wu := logical - g.UnitStart(unit) // within-unit offset
	stripe := unit / int64(g.DataWidth())
	first, count := g.DataUnitsOf(stripe)

	// Survivor spans: the same within-unit range of every other data unit.
	var spans []wire.Span
	for j := 0; j < count; j++ {
		u := first + int64(j)
		if u == unit {
			continue
		}
		spans = append(spans, wire.Span{Off: g.UnitStart(u) + wu, Len: n})
	}

	ps := g.ParityServerOf(stripe)
	pieces := make([][]wire.Span, g.Servers)
	for _, sp := range spans {
		s := g.ServerOf(g.UnitOf(sp.Off))
		pieces[s] = append(pieces[s], sp)
	}

	var mu sync.Mutex
	acc := make([]byte, n) // XOR accumulator
	err := f.c.eachServer(g.Servers, func(i int) error {
		if i == ps {
			resp, err := f.c.callSrv(i, &wire.ReadParity{File: f.ref, Stripes: []int64{stripe}})
			if err != nil {
				return err
			}
			rr := resp.(*wire.ReadResp)
			defer rr.Release()
			par := rr.Data
			if int64(len(par)) != g.StripeUnit {
				return fmt.Errorf("client: short parity read")
			}
			mu.Lock()
			raid.XORInto(acc, par[wu:wu+n])
			mu.Unlock()
			return nil
		}
		if len(pieces[i]) == 0 {
			return nil
		}
		resp, err := f.c.callSrv(i, &wire.Read{File: f.ref, Spans: pieces[i], Raw: true})
		if err != nil {
			return err
		}
		rr := resp.(*wire.ReadResp)
		defer rr.Release()
		data := rr.Data
		if int64(len(data)) != bytesFor(pieces[i]) {
			return fmt.Errorf("client: short survivor read from server %d", i)
		}
		mu.Lock()
		for k := int64(0); k+n <= int64(len(data)); k += n {
			raid.XORInto(acc, data[k:k+n])
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	copy(dst, acc)
	return nil
}

// patchFromOverflowMirror overlays the dead server's overflow contents —
// mirrored on the next server — onto the reconstructed buffer.
func (f *File) patchFromOverflowMirror(p []byte, off int64, dead int) error {
	g := f.geom
	mirrorSrv := (dead + 1) % g.Servers
	resp, err := f.c.callSrv(mirrorSrv, &wire.OverflowDump{File: f.ref, Mirror: true})
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

// readRawLive fills dst with the in-place contents of span from the live
// servers only, leaving the dead server's pieces zeroed for the caller to
// reconstruct. Used by degraded read-modify-write.
func (f *File) readRawLive(span raid.Span, dst []byte, dead int) error {
	reads, err := f.fetchSpans(span, true, 0, onlyServer(dead))
	if err != nil {
		return err
	}
	mergeFromServers(f.geom, span.Off, dst, reads, nil)
	reads.release()
	return nil
}

// reconstructOldPieces fills the dead server's pieces of old (holding the
// logical range of span) by reconstructing them from the stripe's
// survivors and parity.
func (f *File) reconstructOldPieces(span raid.Span, old []byte, dead int) error {
	g := f.geom
	end := span.Off + span.Len
	for cur := span.Off; cur < end; {
		b := g.UnitOf(cur)
		pieceEnd := g.UnitStart(b + 1)
		if pieceEnd > end {
			pieceEnd = end
		}
		if g.ServerOf(b) == dead {
			if err := f.reconstructRange(old[cur-span.Off:pieceEnd-span.Off], cur, dead); err != nil {
				return err
			}
		}
		cur = pieceEnd
	}
	return nil
}
