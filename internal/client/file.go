package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/core"
	"csar/internal/obs"
	"csar/internal/raid"
	"csar/internal/wire"
)

// File is an open CSAR file. Methods are safe for concurrent use; as in
// PVFS, concurrent writers to non-overlapping regions are consistent
// (RAID5 parity protected by the Section 5.1 lock), while overlapping
// concurrent writes carry no guarantees.
type File struct {
	c    *Client
	ref  wire.FileRef
	geom raid.Geometry
	size atomic.Int64

	// gateExempt marks a handle that skips the relayout gate: the shadow
	// layout of a migration (written under the gate's shared side) and the
	// engine's handles inside RelayoutExclusive sections. See relayout.go.
	gateExempt bool
}

// Ref returns the file's wire reference.
func (f *File) Ref() wire.FileRef { return f.ref }

// Geometry returns the file's stripe geometry.
func (f *File) Geometry() raid.Geometry { return f.geom }

// Scheme returns the file's redundancy scheme.
func (f *File) Scheme() wire.Scheme { return f.ref.Scheme }

// Size returns the file's logical size as known to this client.
func (f *File) Size() int64 { return f.size.Load() }

// WriteAt writes len(p) bytes at offset off, maintaining the file's
// redundancy per its scheme.
//
// With one server marked down, Raid1, Raid5 and Hybrid files accept
// degraded writes (an extension beyond the paper's prototype): data
// destined for the failed server is carried by its redundancy — the mirror
// copy, the stripe parity, or the mirrored overflow region — and restored
// by the next Rebuild. Raid0 and the instrumented RAID5 variants return
// ErrDegradedWrite.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	// One trace ID per logical operation: it rides the wire header of every
	// RPC this write issues, so server-side slow-op logs correlate back here.
	tr := obs.NewTraceID()
	opStart := time.Now()
	defer func() { f.c.Observe("op_write", f.c.sinceStart(opStart)) }()
	// Online scheme migration (relayout.go): the whole write runs under
	// the shared side of the relayout gate so a migration's chunk copies
	// never interleave with it. A write overlapping the already-copied
	// region is mirrored into the shadow layout once the live write lands;
	// one wholly ahead of the cursor goes to the live layout only (the
	// copy will reach it).
	var mig *File
	if !f.gateExempt {
		f.c.relayoutGate.RLock()
		defer f.c.relayoutGate.RUnlock()
		if dst, cur, ok := f.c.relayoutDst(f.ref.ID); ok && off < cur {
			mig = dst
		}
	}
	dead := -1
	if d, down := f.c.anyDown(f.ref); down {
		switch f.ref.Scheme {
		case wire.Raid1, wire.Raid5, wire.Hybrid:
			dead = d
		case wire.ReedSolomon:
			// Degraded writes carry one failure (the dirty-region log and
			// delta resync are per-outage); with several servers out the
			// file stays readable but rejects writes until rebuild.
			if len(f.c.allDown(f.ref)) > 1 {
				return 0, ErrDegradedWrite
			}
			dead = d
		default:
			return 0, ErrDegradedWrite
		}
	}
	plan := core.PlanWrite(f.geom, f.ref.Scheme, off, int64(len(p)))
	execDead := dead
	forwarded := false
	if dead >= 0 {
		// Decide-and-execute runs under the resync replay gate (shared side)
		// so an item replay never interleaves with a foreground write; see
		// Client.ResyncExclusive.
		f.c.resyncGate.RLock()
		defer f.c.resyncGate.RUnlock()
		f.c.degradedInFlight.Add(1)
		if cur, ok := f.c.resyncCursor(f.ref.ID, dead); ok &&
			syncExtentEnd(f.geom, f.ref.Scheme, plan, off, int64(len(p))) <= cur {
			// The whole extent is behind the resync cursor: the recovering
			// server is current there, so write to it directly instead of
			// re-dirtying the log.
			f.c.degradedInFlight.Add(-1)
			forwarded = true
			execDead = -1
		} else {
			defer f.c.degradedInFlight.Add(-1)
			// Dirty-then-write: the damage goes on the replicated log before
			// any data lands, so a crash in between costs a spurious replay,
			// never a missed one.
			if err := f.c.recordDirty(f.ref, f.geom, plan, dead); err != nil {
				return 0, err
			}
		}
	}
	if err := f.execute(plan, off, p, execDead, tr); err != nil {
		return 0, err
	}
	if mig != nil {
		// Dual-write: the copied region of the shadow layout must track
		// the live layout byte for byte, so a failure here fails the write
		// — a silent skip would surface as divergence at cutover.
		if _, err := mig.WriteAt(p, off); err != nil {
			return 0, fmt.Errorf("client: migration dual-write: %w", err)
		}
		f.c.metrics.relayoutDualWrites.Add(1)
	}
	f.c.metrics.writes.Add(1)
	f.c.metrics.writeBytes.Add(int64(len(p)))
	switch {
	case forwarded:
		f.c.metrics.resyncForwards.Add(1)
	case dead >= 0:
		f.c.metrics.degradedWrites.Add(1)
		// The dead server missed this write: its stores are stale, so the
		// breaker must not re-admit it before rebuild/resync + MarkUp.
		f.c.markStale(dead)
	}
	for {
		old := f.size.Load()
		if off+int64(len(p)) <= old || f.size.CompareAndSwap(old, off+int64(len(p))) {
			break
		}
	}
	return len(p), nil
}

// execute runs the portions of a write plan. The RAID5 deadlock-avoidance
// rule (Section 5.1) requires only that the lower-numbered partial stripe's
// parity READ completes before the higher-numbered one is issued: a leading
// read-modify-write portion therefore starts first, and the remaining
// portions launch as soon as its parity read has returned, overlapping its
// write phase.
//
// The in-place data of the plain and (XOR) full-stripe portions is
// coalesced into one multi-span WriteData per server (writeBatch), issued
// concurrently with the batched parity writes; the RMW, mirror, overflow
// and Reed-Solomon portions keep their own protocols.
func (f *File) execute(plan core.Plan, off int64, p []byte, dead int, tr uint64) error {
	data := func(s raid.Span) []byte { return p[s.Off-off : s.End()-off] }

	var headErr error
	headDone := make(chan struct{})
	rest := plan.Portions
	if len(rest) > 1 && rest[0].Mode == core.ModeRMW {
		head := rest[0]
		rest = rest[1:]
		f.c.metrics.rmws.Add(1)
		lockHeld := make(chan struct{})
		go func() {
			defer close(headDone)
			defer f.timePath(f.writePathName("rmw"))()
			headErr = f.writeRMW(head.Span, data(head.Span), func() { close(lockHeld) }, dead, tr)
		}()
		<-lockHeld // head's parity read has completed (or failed)
	} else {
		close(headDone)
	}

	// Size the batch and compute the parity up front so the coalesced data
	// RPCs and the parity RPCs all hit the wire together.
	batch := newWriteBatch(f.geom)
	var parity *parityBatch // of the plan's one full-stripe portion
	var others []core.Portion
	var stops []func()
	var prepErr error
	for _, pt := range rest {
		if prepErr != nil {
			break
		}
		switch {
		case pt.Mode == core.ModePlain:
			stops = append(stops, f.timePath("op_write_plain"))
			batch.add(pt.Span, data(pt.Span))
		case pt.Mode == core.ModeFullStripe && f.ref.Scheme != wire.ReedSolomon:
			f.c.metrics.fullStripes.Add(1)
			stops = append(stops, f.timePath(f.writePathName("full_stripe")))
			if parity, prepErr = f.fullStripeParity(pt.Span, data(pt.Span)); prepErr != nil {
				break
			}
			batch.add(pt.Span, data(pt.Span))
		default:
			others = append(others, pt)
		}
	}
	if prepErr != nil {
		<-headDone
		return prepErr
	}

	errs := make([]error, len(others)+2)
	var wg sync.WaitGroup
	if !batch.empty() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[len(others)] = batch.flush(f, dead, tr)
		}()
	}
	if parity != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[len(others)+1] = parity.flush(f, dead, tr)
		}()
	}
	for i, pt := range others {
		wg.Add(1)
		go func(i int, pt core.Portion) {
			defer wg.Done()
			switch pt.Mode {
			case core.ModeMirrored:
				f.c.metrics.mirrors.Add(1)
				defer f.timePath("op_write_mirror")()
				errs[i] = f.writeMirrored(pt.Span, data(pt.Span), dead, tr)
			case core.ModeFullStripe:
				f.c.metrics.fullStripes.Add(1)
				defer f.timePath(f.writePathName("full_stripe"))()
				errs[i] = f.writeFullStripesRS(pt.Span, data(pt.Span), dead, tr)
			case core.ModeRMW:
				f.c.metrics.rmws.Add(1)
				defer f.timePath(f.writePathName("rmw"))()
				errs[i] = f.writeRMW(pt.Span, data(pt.Span), nil, dead, tr)
			case core.ModeOverflow:
				f.c.metrics.overflowWrites.Add(1)
				defer f.timePath("op_write_overflow")()
				errs[i] = f.writeOverflow(pt.Span, data(pt.Span), dead, tr)
			default:
				errs[i] = fmt.Errorf("client: unknown portion mode %v", pt.Mode)
			}
		}(i, pt)
	}
	wg.Wait()
	for _, stop := range stops {
		stop()
	}
	<-headDone
	if headErr != nil {
		return headErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timePath starts a timer for one per-path histogram and returns the stop
// function; meant for defer at the top of each write-path branch.
func (f *File) timePath(name string) func() {
	start := time.Now()
	return func() { f.c.Observe(name, f.c.sinceStart(start)) }
}

// writePathName returns the histogram name of one write-path branch:
// Reed-Solomon files get their own op_write_rs_* series so the GF(256)
// coding paths are visible separately from the XOR-parity ones.
func (f *File) writePathName(base string) string {
	if f.ref.Scheme == wire.ReedSolomon {
		return "op_write_rs_" + base
	}
	return "op_write_" + base
}

// sendWriteData ships per-server payloads of span to the data files,
// skipping the dead server (whose contents the redundancy carries) when
// dead >= 0.
func (f *File) sendWriteData(span raid.Span, data payloads, dead int, tr uint64) error {
	return f.c.eachServer(f.geom.Servers, func(i int) error {
		if data[i] == nil || i == dead {
			return nil
		}
		_, err := f.c.callSrvT(i, owned(&wire.WriteData{
			File:  f.ref,
			Spans: []wire.Span{{Off: span.Off, Len: span.Len}},
			Data:  *data[i],
		}, data[i]), tr)
		return err
	})
}

func (f *File) writeMirrored(span raid.Span, p []byte, dead int, tr uint64) error {
	dataPayloads := splitByServer(f.geom, span.Off, p)
	mirrorPayloads := splitByMirror(f.geom, span.Off, p)
	var wg sync.WaitGroup
	var dErr, mErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		dErr = f.sendWriteData(span, dataPayloads, dead, tr)
	}()
	go func() {
		defer wg.Done()
		mErr = f.c.eachServer(f.geom.Servers, func(i int) error {
			if mirrorPayloads[i] == nil || i == dead {
				return nil
			}
			_, err := f.c.callSrvT(i, owned(&wire.WriteMirror{
				File:  f.ref,
				Spans: []wire.Span{{Off: span.Off, Len: span.Len}},
				Data:  *mirrorPayloads[i],
			}, mirrorPayloads[i]), tr)
			return err
		})
	}()
	wg.Wait()
	if dErr != nil {
		return dErr
	}
	return mErr
}

// Full-stripe XOR writes — data in place plus freshly computed parity,
// with no locks and no reads (the RAID5 best case) — run through the
// writeBatch/parityBatch machinery in execute; see batch.go. Overflow
// invalidation for the written stripes happens implicitly at each server
// when it applies the in-place data write (Section 4's migration back to
// RAID5); no extra messages are needed.

// writeRMW performs a partial-stripe RAID5 update: read the old parity
// (acquiring the stripe's lock) and the old data concurrently, fold the
// delta into the parity, write the new data, then write the parity
// (releasing the lock). The two reads overlap — "the client reads the data
// in the partial stripes and also the corresponding parity region" — which
// keeps the lock-hold window to the write phase; this is why the paper
// keeps the lock-hold window modest (Figure 3). onParityRead, if non-nil,
// is called exactly once, when the parity read has completed — the caller
// uses it to release the next partial stripe's parity read per the
// Section 5.1 ordering rule.
//
// Degraded mode (dead >= 0):
//   - If the dead server holds this stripe's parity, there is no parity to
//     maintain until rebuild: the new data is simply written to the (all
//     live) data servers.
//   - If the dead server holds data units in the range, their old contents
//     are reconstructed from the survivors and the parity before the delta
//     is applied, so the updated parity encodes the new bytes and the next
//     rebuild materializes them.
func (f *File) writeRMW(span raid.Span, p []byte, onParityRead func(), dead int, tr uint64) error {
	if f.ref.Scheme == wire.ReedSolomon {
		return f.writeRMWRS(span, p, onParityRead, dead, tr)
	}
	g := f.geom
	stripe := g.StripeOf(span.Off)
	lock := f.ref.Scheme.UsesLocking()
	ps := g.ParityServerOf(stripe)

	if dead == ps {
		// Degraded with the parity server down: the stripe's data units are
		// all on live servers; parity is recomputed at rebuild.
		if onParityRead != nil {
			onParityRead()
		}
		return f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr)
	}

	// 1. Old-parity read (lock acquisition) and old-data read, in parallel.
	// The acquisition carries a fresh owner token: if the locked read fails
	// client-side (deadline, dead link) we cannot know whether the server
	// granted the lock, and the token lets us release exactly that possible
	// ghost acquisition without ever touching a lock granted to anyone else.
	// It also carries the policy's lock lease: the server opens a stripe
	// intent with that deadline, and lease.go heartbeats it until the
	// unlocking parity write retires it — so a client that dies mid-RMW
	// costs one lease, not a wedged stripe.
	pol := f.c.getPolicy()
	var token uint64
	if lock {
		token = nextLockToken()
	}
	var presp *wire.ReadResp // the old parity, updated in place in its pooled buffer
	var pErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if onParityRead != nil {
			defer onParityRead()
		}
		// parity_lock_wait: how long the locked parity read took end to end —
		// queueing behind another holder of this stripe's lock included.
		if lock {
			defer f.timePath("parity_lock_wait")()
		}
		resp, err := f.c.callSrvT(ps, &wire.ReadParity{
			File: f.ref, Stripes: []int64{stripe}, Lock: lock, Owner: token,
			LeaseMS: leaseMS(pol),
		}, tr)
		if err != nil {
			pErr = err
			if lock && isUnavailable(err) {
				// The server may hold the lock for us without us knowing;
				// fire the token-scoped release so no peer queues behind a
				// ghost (the Section 4 protocol cannot deadlock on us). No
				// data has been written: a clean (non-dirty) cancel.
				f.c.releaseParityLock(ps, f.ref, stripe, token, false)
			}
			return
		}
		presp = resp.(*wire.ReadResp)
		if int64(len(presp.Data)) != g.StripeUnit {
			pErr = fmt.Errorf("client: parity read returned %d bytes, want %d",
				len(presp.Data), g.StripeUnit)
			if lock {
				// Granted but unusable: free the acquisition (stripe untouched).
				f.c.releaseParityLock(ps, f.ref, stripe, token, false)
			}
			return
		}
		if lock {
			f.c.trackLease(ps, f.ref, stripe, token)
		}
	}()
	// The old data is scratch nothing outside this function ever sees (it is
	// merged into, XORed from, never sent), so it always goes back.
	oldBuf := wire.GetBuf(int(span.Len))
	defer wire.PutBuf(oldBuf)
	old := *oldBuf
	var dErr error
	if dead < 0 {
		dErr = f.readRaw(span, old, tr)
	} else {
		// Live pieces read normally; the dead server's pieces are
		// reconstructed below, once the parity is in hand.
		dErr = f.readRawLive(span, old, dead)
	}
	<-done
	if pErr != nil {
		return pErr // lock not held (or unusable); nothing to release
	}
	if dErr == nil && dead >= 0 {
		dErr = f.reconstructOldPieces(span, old, dead)
	}

	unlockOnError := func(cause error) error {
		if lock {
			// Release the lock with an unchanged parity write so a failure
			// here cannot wedge other clients; if even that cannot reach the
			// server, fall back to the token-scoped release. No data write
			// has started, so the stripe is untouched (non-dirty).
			f.c.untrackLease(token)
			_, uerr := f.c.callSrvT(ps, &wire.WriteParity{
				File: f.ref, Stripes: []int64{stripe}, Data: presp.Data, Unlock: true, Owner: token,
			}, tr)
			if uerr != nil && isUnavailable(uerr) {
				f.c.releaseParityLock(ps, f.ref, stripe, token, false)
			}
		}
		return cause
	}
	if dErr != nil {
		return unlockOnError(dErr)
	}

	// 3. New parity = old parity ^ old data ^ new data.
	if f.ref.Scheme != wire.Raid5NPC {
		f.c.chargeXOR(2 * span.Len)
		core.ApplyParityDelta(g, span.Off, old, p, presp.Data)
	}

	// 4. Write the new data and the new parity; the parity write releases
	// the lock. For the protocol's consistency guarantee (concurrent writes
	// to non-overlapping regions) no ordering between them is needed:
	// another client's delta never involves this range's data, and the
	// parity block itself is serialized by the lock. Crash consistency is a
	// different matter — see writeRMWCommit for the two orderings.
	return f.writeRMWCommit(pol, span, p, stripe, ps, presp, lock, token, dead, tr)
}

// writeRMWCommit runs the write phase of a read-modify-write.
//
// With Policy.CrashSafeRMW the phases are strictly ordered: the data writes
// must all complete before the unlocking parity write is issued. The
// unlocking write is what retires the stripe's intent record on the parity
// server, so under this ordering an intent is only ever retired when data
// and parity are both fully in place — a crash at any earlier point leaves
// an open intent, and recovery's replay reconstructs the parity from
// whatever data landed. If a data write fails partway, parity and data may
// already disagree, so the lock is released dirty: the server fail-stops
// the stripe (abandons the intent, refuses new locks) until replay
// reconciles it.
//
// Without CrashSafeRMW the two run concurrently — the paper's layout, which
// keeps the lock-hold window to the write phase (Figure 3) but reopens the
// write hole if a client can crash between them.
//
// parity, the ReadParity response the new parity was computed in, is
// released once the parity write has returned successfully: the server has
// the bytes. After an error or a timeout it is left to the garbage collector
// — the abandoned call may still be reading it.
func (f *File) writeRMWCommit(pol Policy, span raid.Span, p []byte, stripe int64, ps int, parity *wire.ReadResp, lock bool, token uint64, dead int, tr uint64) error {
	g := f.geom
	if lock && pol.CrashSafeRMW {
		if dErr := f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr); dErr != nil {
			f.c.untrackLease(token)
			f.c.releaseParityLock(ps, f.ref, stripe, token, true)
			return dErr
		}
		_, pwErr := f.c.callSrvT(ps, &wire.WriteParity{
			File: f.ref, Stripes: []int64{stripe}, Data: parity.Data, Unlock: true, Owner: token,
		}, tr)
		f.c.untrackLease(token)
		if pwErr != nil {
			if errors.Is(pwErr, wire.ErrLeaseExpired) {
				// The server expired our lease mid-write and fenced this
				// late parity write off; the stripe is fail-stopped until
				// replay reconstructs its parity from the data we wrote.
				f.c.metrics.leaseExpiries.Add(1)
				return pwErr
			}
			if isUnavailable(pwErr) {
				// The unlocking parity write may have been lost before the
				// server applied it; the stripe's data has changed, so the
				// lingering acquisition must be released dirty.
				f.c.releaseParityLock(ps, f.ref, stripe, token, true)
			}
			return pwErr
		}
		parity.Release()
		return nil
	}

	var wErr error
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		wErr = f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr)
	}()
	_, pwErr := f.c.callSrvT(ps, &wire.WriteParity{
		File: f.ref, Stripes: []int64{stripe}, Data: parity.Data, Unlock: lock, Owner: token,
	}, tr)
	<-wdone
	if lock {
		f.c.untrackLease(token)
	}
	if pwErr != nil {
		if lock && isUnavailable(pwErr) {
			// The unlocking parity write may have been lost before the
			// server applied it; make sure the acquisition cannot linger.
			// Data writes ran concurrently, so the release is dirty.
			f.c.releaseParityLock(ps, f.ref, stripe, token, true)
		}
		return pwErr
	}
	parity.Release()
	return wErr
}

// writeOverflow stores a partial-stripe portion the Hybrid way: the new
// bytes go to the overflow region of each piece's home server, and a mirror
// copy goes to the overflow-mirror region of the unit's mirror server. No
// locks, no reads — the in-place data and parity stay untouched so the
// stripe remains reconstructable.
func (f *File) writeOverflow(span raid.Span, p []byte, dead int, tr uint64) error {
	g := f.geom
	prim := serverPieces(g, span.Off, span.Len)
	mirr := mirrorPieces(g, span.Off, span.Len)
	primPayload := splitByServer(g, span.Off, p)
	mirrPayload := splitByMirror(g, span.Off, p)

	var wg sync.WaitGroup
	var pErr, mErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		pErr = f.c.eachServer(g.Servers, func(i int) error {
			if len(prim[i]) == 0 || i == dead {
				return nil
			}
			_, err := f.c.callSrvT(i, owned(&wire.WriteOverflow{
				File: f.ref, Extents: prim[i], Data: *primPayload[i],
			}, primPayload[i]), tr)
			return err
		})
	}()
	go func() {
		defer wg.Done()
		mErr = f.c.eachServer(g.Servers, func(i int) error {
			if len(mirr[i]) == 0 || i == dead {
				return nil
			}
			_, err := f.c.callSrvT(i, owned(&wire.WriteOverflow{
				File: f.ref, Extents: mirr[i], Data: *mirrPayload[i], Mirror: true,
			}, mirrPayload[i]), tr)
			return err
		})
	}()
	wg.Wait()
	if pErr != nil {
		return pErr
	}
	return mErr
}

// ReadAt reads len(p) bytes at offset off. Bytes beyond what has been
// written read as zero. With a failed server it falls back to the scheme's
// degraded path.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	tr := obs.NewTraceID()
	opStart := time.Now()
	defer func() { f.c.Observe("op_read", f.c.sinceStart(opStart)) }()
	// Reads come from the live (committed) layout throughout a migration.
	// The gate's shared side makes the cutover atomic with respect to
	// in-flight reads: AdoptRef swaps ref and geometry under the exclusive
	// side.
	if !f.gateExempt {
		f.c.relayoutGate.RLock()
		defer f.c.relayoutGate.RUnlock()
	}
	if idx, down := f.c.anyDown(f.ref); down {
		f.c.metrics.degradedReads.Add(1)
		n, err := f.readDegraded(p, off, idx)
		if err == nil {
			f.c.metrics.reads.Add(1)
			f.c.metrics.readBytes.Add(int64(n))
		}
		return n, err
	}
	span := raid.Span{Off: off, Len: int64(len(p))}
	reads, err := f.fetchSpans(span, false, tr, nil)
	if err != nil {
		// A server died mid-read. For redundant schemes, fail over to the
		// reconstruction paths on the spot rather than surfacing an error
		// the redundancy exists to absorb.
		if dead, ok := FailedServer(err); ok && dead < f.geom.Servers &&
			f.ref.Scheme != wire.Raid0 {
			f.c.metrics.failovers.Add(1)
			f.c.metrics.degradedReads.Add(1)
			n, derr := f.readDegraded(p, off, dead)
			if derr == nil {
				f.c.metrics.reads.Add(1)
				f.c.metrics.readBytes.Add(int64(n))
				return n, nil
			}
		}
		return 0, err
	}
	mergeFromServers(f.geom, off, p, reads, nil)
	reads.release()
	f.c.metrics.reads.Add(1)
	f.c.metrics.readBytes.Add(int64(len(p)))
	return len(p), nil
}

// fetchSpans reads one span from every server that stores part of it, save
// those skip (nil: none) excludes, and returns the responses by server. raw
// skips server-side overflow patching. The caller releases the result once it
// has merged it; on error there is nothing left to release.
func (f *File) fetchSpans(span raid.Span, raw bool, tr uint64, skip func(srv int) bool) (spanReads, error) {
	g := f.geom
	pieces := serverPieces(g, span.Off, span.Len)
	reads := make(spanReads, g.Servers)
	err := f.c.eachServer(g.Servers, func(i int) error {
		want := bytesFor(pieces[i])
		if want == 0 || (skip != nil && skip(i)) {
			return nil
		}
		resp, err := f.c.callSrvT(i, &wire.Read{
			File:  f.ref,
			Spans: []wire.Span{{Off: span.Off, Len: span.Len}},
			Raw:   raw,
		}, tr)
		if err != nil {
			return err
		}
		reads[i] = resp.(*wire.ReadResp)
		if got := int64(len(reads[i].Data)); got != want {
			return fmt.Errorf("client: server %d returned %d bytes, want %d", i, got, want)
		}
		return nil
	})
	if err != nil {
		reads.release()
		return nil, err
	}
	return reads, nil
}

// readRaw fills dst with the in-place (data file) contents of span,
// bypassing overflow patching; the RMW path uses it because parity is
// defined over the in-place data.
func (f *File) readRaw(span raid.Span, dst []byte, tr uint64) error {
	reads, err := f.fetchSpans(span, true, tr, nil)
	if err != nil {
		return err
	}
	mergeFromServers(f.geom, span.Off, dst, reads, nil)
	reads.release()
	return nil
}

// Compact migrates a Hybrid file's overflow-resident data back to RAID5
// and reclaims the overflow regions' storage — the background recovery
// process the paper sketches in Section 6.7: "a simple process that reads
// files in their entirety and writes them in a large chunk". After Compact,
// the file's long-term storage matches the RAID5 scheme's (plus at most one
// trailing partial stripe still mirrored in overflow). It is a no-op for
// other schemes. The caller should run it when the file is quiescent.
func (f *File) Compact() error {
	if f.ref.Scheme != wire.Hybrid {
		return nil
	}
	if _, down := f.c.anyDown(f.ref); down {
		return ErrDegradedWrite
	}
	size := f.size.Load()
	ss := f.geom.StripeSize()
	chunk := ss * 64
	buf := make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		n := chunk
		if off+n > size {
			n = size - off
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		// Rewriting in place sends whole stripes down the RAID5 path and
		// implicitly invalidates the overflow extents they cover.
		if _, err := f.WriteAt(buf[:n], off); err != nil {
			return err
		}
	}
	f.c.metrics.compactions.Add(1)
	// Reclaim the dead slots.
	return f.c.eachServer(f.geom.Servers, func(i int) error {
		if _, err := f.c.callSrv(i, &wire.CompactOverflow{File: f.ref}); err != nil {
			return err
		}
		_, err := f.c.callSrv(i, &wire.CompactOverflow{File: f.ref, Mirror: true})
		return err
	})
}

// Sync flushes every server's stores for this file and publishes the
// file's size to the manager.
func (f *File) Sync() error {
	if err := f.c.eachServer(f.geom.Servers, func(i int) error {
		_, err := f.c.callSrv(i, &wire.Sync{File: f.ref})
		return err
	}); err != nil {
		return err
	}
	_, err := f.c.mgrCall(&wire.SetSize{ID: f.ref.ID, Size: f.size.Load()})
	return err
}

// StorageBytes sums this file's storage across all servers: the total and
// the per-store breakdown (data, mirror, parity, overflow, overflow-mirror)
// — the measurement behind Table 2 of the paper.
func (f *File) StorageBytes() (int64, [5]int64, error) {
	var mu sync.Mutex
	var total int64
	var byStore [5]int64
	err := f.c.eachServer(f.geom.Servers, func(i int) error {
		resp, err := f.c.callSrv(i, &wire.StorageStat{FileID: f.ref.ID})
		if err != nil {
			return err
		}
		st := resp.(*wire.StorageStatResp)
		mu.Lock()
		defer mu.Unlock()
		total += st.Total
		for k := range byStore {
			byStore[k] += st.ByStore[k]
		}
		return nil
	})
	return total, byStore, err
}
