package client

import (
	"errors"
	"fmt"
	"sync"

	"csar/internal/core"
	"csar/internal/raid"
	"csar/internal/wire"
)

// This file holds the Reed-Solomon RS(k, m) client paths. They mirror the
// RAID5 paths in file.go and degraded.go, generalized from one XOR parity
// unit per stripe to m GF(256) coefficient rows: full-stripe writes encode
// and ship m parity units, partial-stripe writes fold the data delta into
// all m parity units under m per-server locks, and degraded reads rebuild
// up to m lost units per stripe from any k survivors.

// writeFullStripesRS writes whole stripes under Reed-Solomon: data in place
// plus the stripe's m freshly encoded parity units, one per parity server,
// with no locks and no reads.
func (f *File) writeFullStripesRS(span raid.Span, p []byte, dead int, tr uint64) error {
	g := f.geom
	ss := g.StripeSize()
	su := int(g.StripeUnit)
	if span.Off%ss != 0 || span.Len%ss != 0 {
		return fmt.Errorf("client: full-stripe span [%d,%d) not stripe-aligned", span.Off, span.End())
	}
	code, err := core.RSOf(g)
	if err != nil {
		return err
	}
	m := g.PU()

	// Encode per stripe, each parity unit in place in the payload its
	// server's WriteParity will own.
	f.c.chargeGF(int64(m) * span.Len)
	sizes := make([]int, g.Servers)
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := 0; j < m; j++ {
			sizes[g.ParityServerOfUnit(s, j)] += su
		}
	}
	stripes := make([][]int64, g.Servers)
	parity := newPayloads(sizes)
	units := make([][]byte, m)
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			ps := g.ParityServerOfUnit(s, j)
			stripes[ps] = append(stripes[ps], s)
			units[j] = parity.grow(ps, su)
		}
		base := g.StripeStart(s) - span.Off
		core.StripeRSParity(g, code, p[base:base+ss], units)
	}

	data := splitByServer(g, span.Off, p)
	var wg sync.WaitGroup
	var dErr, pErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		dErr = f.sendWriteData(span, data, dead, tr)
	}()
	go func() {
		defer wg.Done()
		pErr = f.c.eachServer(g.Servers, func(i int) error {
			if len(stripes[i]) == 0 || i == dead {
				return nil
			}
			_, err := f.c.callSrvT(i, owned(&wire.WriteParity{
				File:    f.ref,
				Stripes: stripes[i],
				Data:    *parity[i],
			}, parity[i]), tr)
			return err
		})
	}()
	wg.Wait()
	if dErr != nil {
		return dErr
	}
	return pErr
}

// rsParityLock is one held parity-lock acquisition of a multi-parity
// read-modify-write: parity unit j of the stripe, the server holding it,
// the acquisition's owner token, and the ReadParity response whose Data is
// the parity contents being updated in place.
type rsParityLock struct {
	j     int
	srv   int
	token uint64
	resp  *wire.ReadResp
}

// writeRMWRS performs a partial-stripe Reed-Solomon update: lock and read
// all m parity units, read the old data, fold the delta into every parity
// unit with its own coefficient row, write the new data, and write the m
// new parity units (each write releasing its server's lock and retiring its
// intent). One locked RMW therefore updates all m parity servers before any
// lock is released, so a crash at any point leaves intents open on exactly
// the parity servers whose units are not yet consistent, and replay
// reconstructs each from the data that landed.
//
// Lock acquisitions happen strictly one at a time in parity-unit order:
// every client updating a stripe walks its parity servers in the same j
// order, so no client can hold one of the stripe's locks while waiting on a
// lock another holder of the same stripe already has. Across stripes the
// Section 5.1 rule (the lower-numbered stripe's acquisition phase completes
// before the higher-numbered one starts) keeps the order total.
func (f *File) writeRMWRS(span raid.Span, p []byte, onParityRead func(), dead int, tr uint64) error {
	g := f.geom
	stripe := g.StripeOf(span.Off)
	code, err := core.RSOf(g)
	if err != nil {
		if onParityRead != nil {
			onParityRead()
		}
		return err
	}
	pol := f.c.getPolicy()

	// The parity units to maintain: all m of the stripe's, minus a dead
	// server's (its unit is reconstructed by the next rebuild).
	var locks []*rsParityLock
	for j := 0; j < g.PU(); j++ {
		if srv := g.ParityServerOfUnit(stripe, j); srv != dead {
			locks = append(locks, &rsParityLock{j: j, srv: srv, token: nextLockToken()})
		}
	}
	if len(locks) == 0 {
		// m=1 with that one parity server down: data units are all live.
		if onParityRead != nil {
			onParityRead()
		}
		return f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr)
	}

	// Phase 1: acquire the parity locks (in j order, sequentially) in
	// parallel with the old-data read.
	var pErr error
	acquired := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		if onParityRead != nil {
			defer onParityRead()
		}
		defer f.timePath("parity_lock_wait")()
		for _, l := range locks {
			presp, err := f.c.callSrvT(l.srv, &wire.ReadParity{
				File: f.ref, Stripes: []int64{stripe}, Lock: true, Owner: l.token,
				LeaseMS: leaseMS(pol),
			}, tr)
			if err != nil {
				pErr = err
				if isUnavailable(err) {
					// The server may hold the lock for us without us
					// knowing; fire the token-scoped release (clean: no
					// data written yet).
					f.c.releaseParityLock(l.srv, f.ref, stripe, l.token, false)
				}
				return
			}
			l.resp = presp.(*wire.ReadResp)
			if int64(len(l.resp.Data)) != g.StripeUnit {
				pErr = fmt.Errorf("client: parity read returned %d bytes, want %d",
					len(l.resp.Data), g.StripeUnit)
				f.c.releaseParityLock(l.srv, f.ref, stripe, l.token, false)
				return
			}
			f.c.trackLease(l.srv, f.ref, stripe, l.token)
			acquired++
		}
	}()
	oldBuf := wire.GetBuf(int(span.Len)) // private scratch, as in writeRMW
	defer wire.PutBuf(oldBuf)
	old := *oldBuf
	var dErr error
	if dead < 0 {
		dErr = f.readRaw(span, old, tr)
	} else {
		dErr = f.readRawLive(span, old, dead)
	}
	<-done

	// unlockAcquired frees every lock we hold, for the error paths. No data
	// has been written when it runs clean: each lock is released with an
	// unchanged parity write, falling back to the token-scoped release.
	unlockAcquired := func() {
		var wg sync.WaitGroup
		for _, l := range locks[:acquired] {
			wg.Add(1)
			go func(l *rsParityLock) {
				defer wg.Done()
				f.c.untrackLease(l.token)
				_, uerr := f.c.callSrvT(l.srv, &wire.WriteParity{
					File: f.ref, Stripes: []int64{stripe}, Data: l.resp.Data, Unlock: true, Owner: l.token,
				}, tr)
				if uerr != nil && isUnavailable(uerr) {
					f.c.releaseParityLock(l.srv, f.ref, stripe, l.token, false)
				}
			}(l)
		}
		wg.Wait()
	}
	if pErr != nil {
		unlockAcquired() // the failed acquisition released itself above
		return pErr
	}
	if dErr == nil && dead >= 0 {
		dErr = f.reconstructOldPiecesRS(span, old, dead)
	}
	if dErr != nil {
		unlockAcquired()
		return dErr
	}

	// Phase 2: new parity_j = old parity_j + Coef(j,i)*(old_i + new_i).
	f.c.chargeGF(2 * span.Len * int64(len(locks)))
	for _, l := range locks {
		core.ApplyRSParityDelta(g, code, l.j, span.Off, old, p, l.resp.Data)
	}

	// Phase 3: write the new data and the m new parity units.
	return f.writeRMWCommitRS(pol, span, p, stripe, locks, dead, tr)
}

// writeRMWCommitRS runs the write phase of a Reed-Solomon read-modify-write,
// with the same two orderings as writeRMWCommit: under Policy.CrashSafeRMW
// the data writes complete before any unlocking parity write is issued (so
// an intent is only retired once data and that server's parity are both in
// place); otherwise data and parity writes run concurrently.
func (f *File) writeRMWCommitRS(pol Policy, span raid.Span, p []byte, stripe int64, locks []*rsParityLock, dead int, tr uint64) error {
	g := f.geom

	releaseDirty := func() {
		var wg sync.WaitGroup
		for _, l := range locks {
			wg.Add(1)
			go func(l *rsParityLock) {
				defer wg.Done()
				f.c.untrackLease(l.token)
				f.c.releaseParityLock(l.srv, f.ref, stripe, l.token, true)
			}(l)
		}
		wg.Wait()
	}
	writeParity := func() error {
		errs := make([]error, len(locks))
		var wg sync.WaitGroup
		for i, l := range locks {
			wg.Add(1)
			go func(i int, l *rsParityLock) {
				defer wg.Done()
				_, pwErr := f.c.callSrvT(l.srv, &wire.WriteParity{
					File: f.ref, Stripes: []int64{stripe}, Data: l.resp.Data, Unlock: true, Owner: l.token,
				}, tr)
				f.c.untrackLease(l.token)
				if pwErr == nil {
					l.resp.Release() // the server has the bytes (writeRMWCommit's rule)
					return
				}
				if errors.Is(pwErr, wire.ErrLeaseExpired) {
					// The server expired our lease and fenced this late
					// write off; the stripe is fail-stopped there until
					// replay reconstructs its parity unit.
					f.c.metrics.leaseExpiries.Add(1)
				} else if isUnavailable(pwErr) {
					// The unlocking write may have been lost before the
					// server applied it; the stripe's data has changed,
					// so the lingering acquisition is released dirty.
					f.c.releaseParityLock(l.srv, f.ref, stripe, l.token, true)
				}
				errs[i] = pwErr
			}(i, l)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	if pol.CrashSafeRMW {
		if dErr := f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr); dErr != nil {
			releaseDirty()
			return dErr
		}
		return writeParity()
	}

	var wErr error
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		wErr = f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr)
	}()
	pwErr := writeParity()
	<-wdone
	if pwErr != nil {
		return pwErr
	}
	return wErr
}

// rsDeadSet returns the down servers of this file's stripe set, plus extra
// (a server that just failed mid-read; -1 for none), in ascending order.
func (f *File) rsDeadSet(extra int) []int {
	deads := f.c.allDown(f.ref)
	if extra >= 0 {
		seen := false
		for _, d := range deads {
			if d == extra {
				seen = true
				break
			}
		}
		if !seen {
			deads = append(deads, extra)
			for j := len(deads) - 1; j > 0 && deads[j] < deads[j-1]; j-- {
				deads[j], deads[j-1] = deads[j-1], deads[j]
			}
		}
	}
	return deads
}

// readDegradedRS serves a read on a Reed-Solomon file with up to m servers
// down: live pieces are read normally, and each piece on a dead server is
// rebuilt from any k surviving units of its stripe.
func (f *File) readDegradedRS(p []byte, off int64, extra int) error {
	g := f.geom
	deads := f.rsDeadSet(extra)
	if len(deads) > g.PU() {
		return fmt.Errorf("client: %d servers down exceeds the file's %d-failure tolerance",
			len(deads), g.PU())
	}
	isDead := func(s int) bool {
		for _, d := range deads {
			if d == s {
				return true
			}
		}
		return false
	}
	span := raid.Span{Off: off, Len: int64(len(p))}
	reads, err := f.fetchSpans(span, false, 0, isDead)
	if err != nil {
		return err
	}

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
			errs[i] = f.reconstructRangeRS(p[dp.cur-off:dp.pieceEnd-off], dp.cur, deads)
		}(i, dp)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reconstructRangeRS rebuilds dst, the in-place contents of the logical
// range [logical, logical+len(dst)) — which must lie within a single stripe
// unit owned by a dead server — by decoding the stripe from any k of its
// surviving units. Live data units are preferred as survivors (their
// identity rows make the decode cheapest); live parity units fill out the
// set when data units are among the dead.
func (f *File) reconstructRangeRS(dst []byte, logical int64, deads []int) error {
	g := f.geom
	code, err := core.RSOf(g)
	if err != nil {
		return err
	}
	k := g.DataWidth()
	m := g.PU()
	n := int64(len(dst))
	unit := g.UnitOf(logical)
	wu := logical - g.UnitStart(unit) // within-unit offset
	stripe := unit / int64(k)
	first, _ := g.DataUnitsOf(stripe)
	target := int(unit - first)
	isDead := func(s int) bool {
		for _, d := range deads {
			if d == s {
				return true
			}
		}
		return false
	}
	if !isDead(g.ServerOf(unit)) {
		return fmt.Errorf("client: reconstructRangeRS on live unit %d", unit)
	}

	// Choose the first k live units in code order (data 0..k-1, then parity
	// k..k+m-1) and fetch the same within-unit range of each.
	type fetch struct {
		idx, srv int
		span     wire.Span // data units only
		parity   bool
	}
	var fetches []fetch
	for i := 0; i < k+m && len(fetches) < k; i++ {
		if i < k {
			u := first + int64(i)
			srv := g.ServerOf(u)
			if isDead(srv) {
				continue
			}
			fetches = append(fetches, fetch{
				idx: i, srv: srv,
				span: wire.Span{Off: g.UnitStart(u) + wu, Len: n},
			})
		} else {
			srv := g.ParityServerOfUnit(stripe, i-k)
			if isDead(srv) {
				continue
			}
			fetches = append(fetches, fetch{idx: i, srv: srv, parity: true})
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
			if ft.parity {
				resp, err := f.c.callSrv(ft.srv, &wire.ReadParity{File: f.ref, Stripes: []int64{stripe}})
				if err != nil {
					errs[i] = err
					return
				}
				resps[i] = resp.(*wire.ReadResp)
				par := resps[i].Data
				if int64(len(par)) != g.StripeUnit {
					errs[i] = fmt.Errorf("client: short parity read from server %d", ft.srv)
					return
				}
				units[ft.idx] = par[wu : wu+n]
				return
			}
			resp, err := f.c.callSrv(ft.srv, &wire.Read{
				File: f.ref, Spans: []wire.Span{ft.span}, Raw: true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			resps[i] = resp.(*wire.ReadResp)
			data := resps[i].Data
			if int64(len(data)) != n {
				errs[i] = fmt.Errorf("client: short survivor read from server %d", ft.srv)
				return
			}
			units[ft.idx] = data
		}(i, ft)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := code.Reconstruct(units); err != nil {
		return err
	}
	copy(dst, units[target])
	return nil
}

// reconstructOldPiecesRS fills the dead server's pieces of old (holding the
// logical range of span) by decoding them from each stripe's survivors; the
// degraded Reed-Solomon read-modify-write uses it so the parity delta is
// computed against the dead server's true old contents.
func (f *File) reconstructOldPiecesRS(span raid.Span, old []byte, dead int) error {
	g := f.geom
	deads := []int{dead}
	end := span.Off + span.Len
	for cur := span.Off; cur < end; {
		b := g.UnitOf(cur)
		pieceEnd := g.UnitStart(b + 1)
		if pieceEnd > end {
			pieceEnd = end
		}
		if g.ServerOf(b) == dead {
			if err := f.reconstructRangeRS(old[cur-span.Off:pieceEnd-span.Off], cur, deads); err != nil {
				return err
			}
		}
		cur = pieceEnd
	}
	return nil
}
