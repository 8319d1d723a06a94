package client

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/core"
	"csar/internal/gf256"
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

	// The parity engine's configuration, resolved from ref in setLayout and
	// nowhere else. code is the stripe's RS(k = N-m, m) code, nil for the
	// schemes that keep no parity; RAID5 and Hybrid are its m = 1 case, whose
	// one coefficient row is all ones — plain XOR. lock and compute are off
	// only for the paper's two ablations: Raid5NoLock's read-modify-writes
	// take no parity lock (Figure 3), Raid5NPC ships parity uncomputed
	// (Figure 4a). opPrefix names the write-path histograms.
	code     *gf256.RS
	lock     bool
	compute  bool
	opPrefix string

	// gateExempt marks a handle whose caller already holds the pass gate:
	// the shadow layout of a migration (written under the gate's shared
	// side) and the engine's handles inside Pass.Exclusive sections. Such a
	// handle touches the gate on no path. See pass.go.
	gateExempt bool
}

// setLayout points the handle at the layout ref describes: geometry, parity
// code and the engine's ablation switches. fileFor calls it on a fresh
// handle, AdoptRef under the pass gate's exclusive side.
func (f *File) setLayout(ref wire.FileRef) error {
	g := raid.Geometry{Servers: int(ref.Servers), StripeUnit: int64(ref.StripeUnit), ParityUnits: int(ref.Parity)}
	var code *gf256.RS
	if ref.Scheme.UsesParity() {
		if err := g.ValidateParity(); err != nil {
			return err
		}
		var err error
		if code, err = gf256.NewRS(g.DataWidth(), g.PU()); err != nil {
			return err
		}
	} else if err := g.Validate(); err != nil {
		return err
	}
	if g.Servers > len(f.c.srv) {
		return fmt.Errorf("client: file spans %d servers, cluster has %d", g.Servers, len(f.c.srv))
	}
	f.ref, f.geom, f.code = ref, g, code
	f.lock = ref.Scheme.UsesLocking()
	f.compute = ref.Scheme != wire.Raid5NPC
	f.opPrefix = "op_write_"
	if ref.Scheme == wire.ReedSolomon {
		// Multi-parity files report under series of their own.
		f.opPrefix = "op_write_rs_"
	}
	return nil
}

// Ref returns the file's wire reference.
func (f *File) Ref() wire.FileRef { return f.ref }

// Geometry returns the file's stripe geometry.
func (f *File) Geometry() raid.Geometry { return f.geom }

// Code returns the RS(k, m) code of the file's parity stripes — m = 1, plain
// XOR, for RAID5 and Hybrid — or nil for a scheme that keeps no parity.
func (f *File) Code() *gf256.RS { return f.code }

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
	// The whole write — sample the cursors, decide, record, execute — runs
	// under the shared side of the pass gate (pass.go), so no unit of a
	// background pass's work interleaves with it and the cursors it samples
	// hold until it returns. Behind a re-layout's cursor the write is mirrored
	// into the shadow layout once the live write lands; wholly ahead of it,
	// it goes to the live layout only (the copy will reach it).
	var mig *File
	if !f.gateExempt {
		f.c.passGate.RLock()
		defer f.c.passGate.RUnlock()
		if ps := f.c.pass(f.ref.ID, relayoutPass); ps != nil && off < ps.Cursor() {
			mig = ps.dst
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
		if ps := f.c.pass(f.ref.ID, dead); ps != nil &&
			syncExtentEnd(f.geom, f.ref.Scheme, plan, off, int64(len(p))) <= ps.Cursor() {
			// The whole extent is behind the resync cursor: the recovering
			// server is current there, so write to it directly instead of
			// re-dirtying the log.
			forwarded = true
			execDead = -1
		} else if err := f.c.recordDirty(f.ref, f.geom, plan, dead); err != nil {
			// Dirty-then-write: the damage goes on the replicated log before
			// any data lands, so a crash in between costs a spurious replay,
			// never a missed one.
			return 0, err
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
// The in-place data of the plain and full-stripe portions is coalesced into
// one multi-span WriteData per server (writeBatch), issued concurrently with
// the batched parity writes; the RMW, mirror and overflow portions keep
// their own protocols.
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
			defer f.timePath(f.opPrefix + "rmw")()
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
		case pt.Mode == core.ModeFullStripe:
			f.c.metrics.fullStripes.Add(1)
			stops = append(stops, f.timePath(f.opPrefix+"full_stripe"))
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
			case core.ModeRMW:
				f.c.metrics.rmws.Add(1)
				defer f.timePath(f.opPrefix + "rmw")()
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

// Full-stripe writes — data in place plus freshly computed parity, with no
// locks and no reads (the RAID5 best case) — run through the
// writeBatch/parityBatch machinery in execute; see batch.go. Overflow
// invalidation for the written stripes happens implicitly at each server
// when it applies the in-place data write (Section 4's migration back to
// RAID5); no extra messages are needed.

// ParityHold is one parity unit of a stripe, read to be updated and written
// back — under its server's stripe lock, unless the scheme is the no-lock
// ablation: one of the 1..m steps of a read-modify-write, or the scrubber's
// byte-level stripe check.
//
// A locked read carries a fresh owner token: if it fails client-side
// (deadline, dead link) we cannot know whether the server granted the lock,
// and the token lets us release exactly that possible ghost acquisition
// without ever touching a lock granted to anyone else. It also carries the
// policy's lock lease: the server opens a stripe intent with that deadline,
// and lease.go heartbeats it until the unlocking parity write retires it —
// so a holder that dies costs one lease, not a wedged stripe.
type ParityHold struct {
	f      *File
	stripe int64
	j, srv int            // parity unit j, on server srv
	token  uint64         // the acquisition's owner token; zero when no lock is taken
	resp   *wire.ReadResp // the unit's contents, updated in place in their pooled buffer
}

// HoldParity reads parity unit j of stripe, acquiring its lock.
func (f *File) HoldParity(stripe int64, j int) (*ParityHold, error) {
	return f.holdParity(stripe, j, 0)
}

func (f *File) holdParity(stripe int64, j int, tr uint64) (*ParityHold, error) {
	h := &ParityHold{f: f, stripe: stripe, j: j, srv: f.geom.ParityServerOfUnit(stripe, j)}
	if f.lock {
		h.token = nextLockToken()
	}
	resp, err := f.c.callSrvT(h.srv, &wire.ReadParity{
		File: f.ref, Stripes: []int64{stripe}, Lock: f.lock, Owner: h.token,
		LeaseMS: leaseMS(f.c.getPolicy()),
	}, tr)
	if err != nil {
		if isUnavailable(err) {
			// The server may hold the lock for us without us knowing; fire the
			// token-scoped release so no peer queues behind a ghost (the
			// Section 4 protocol cannot deadlock on us). Nothing has been
			// written: a clean (non-dirty) cancel.
			h.cancel(false)
		}
		return nil, err
	}
	h.resp = resp.(*wire.ReadResp)
	if int64(len(h.resp.Data)) != f.geom.StripeUnit {
		h.cancel(false) // granted but unusable; the stripe is untouched
		return nil, fmt.Errorf("client: parity read returned %d bytes, want %d",
			len(h.resp.Data), f.geom.StripeUnit)
	}
	if f.lock {
		f.c.trackLease(h.srv, f.ref, stripe, h.token)
	}
	return h, nil
}

// Data returns the parity unit's contents as read.
func (h *ParityHold) Data() []byte { return h.resp.Data }

// Write stores data as the parity unit's new contents, which releases the
// lock and retires the intent. It is for a holder that has left the stripe
// consistent with data — a repair, not an update in flight.
func (h *ParityHold) Write(data []byte) error { return h.write(data, false, 0) }

// write is the closing parity write. dirty says whether the stripe's data
// may have changed under this hold without the parity to match: if the
// write's outcome is unknown the lingering acquisition is released with that
// flag, and a dirty release fail-stops the stripe until intent replay
// reconciles it.
func (h *ParityHold) write(data []byte, dirty bool, tr uint64) error {
	c := h.f.c
	_, err := c.callSrvT(h.srv, &wire.WriteParity{
		File: h.f.ref, Stripes: []int64{h.stripe}, Data: data, Unlock: h.f.lock, Owner: h.token,
	}, tr)
	if !h.f.lock {
		return err
	}
	c.untrackLease(h.token)
	if errors.Is(err, wire.ErrLeaseExpired) {
		// The server expired our lease and fenced this late write off; the
		// stripe is fail-stopped there until replay reconstructs the unit.
		c.metrics.leaseExpiries.Add(1)
	} else if err != nil && isUnavailable(err) {
		// The unlocking write may have been lost before the server applied
		// it; make sure the acquisition cannot linger.
		c.releaseParityLock(h.srv, h.f.ref, h.stripe, h.token, dirty)
	}
	return err
}

// Release drops the lock with an unchanged parity write-back: the stripe was
// not touched. It is a no-op for a scheme that took no lock.
func (h *ParityHold) Release() error { return h.release(0) }

func (h *ParityHold) release(tr uint64) error {
	if !h.f.lock {
		return nil
	}
	return h.write(h.resp.Data, false, tr)
}

// cancel gives the acquisition up with the token-scoped release instead of
// a parity write.
func (h *ParityHold) cancel(dirty bool) {
	if !h.f.lock {
		return
	}
	h.f.c.untrackLease(h.token)
	h.f.c.releaseParityLock(h.srv, h.f.ref, h.stripe, h.token, dirty)
}

// commit is a read-modify-write's closing write: the unit as updated in
// place, over data that has changed. The response the new parity was
// computed in is released once the write has returned successfully: the
// server has the bytes. After an error or a timeout it is left to the
// garbage collector — the abandoned call may still be reading it.
func (h *ParityHold) commit(tr uint64) error {
	err := h.write(h.resp.Data, true, tr)
	if err == nil {
		h.resp.Release()
	}
	return err
}

// abandon is cancel for a stripe whose data writes have started.
func (h *ParityHold) abandon(uint64) error {
	h.cancel(true)
	return nil
}

// eachHold runs step on every hold concurrently and joins the errors.
func eachHold(holds []*ParityHold, tr uint64, step func(*ParityHold, uint64) error) error {
	if len(holds) == 1 {
		return step(holds[0], tr)
	}
	errs := make([]error, len(holds))
	var wg sync.WaitGroup
	for i, h := range holds {
		wg.Add(1)
		go func(i int, h *ParityHold) {
			defer wg.Done()
			errs[i] = step(h, tr)
		}(i, h)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// chargeParity models the client CPU of folding n bytes into each of units
// parity units. A single-parity stripe's one coefficient row is all ones, so
// it costs XOR passes; multi-parity stripes are charged GF(256) passes.
func (f *File) chargeParity(units int, n int64) {
	if f.geom.PU() == 1 {
		f.c.chargeXOR(n)
	} else {
		f.c.chargeGF(int64(units) * n)
	}
}

// writeRMW performs a partial-stripe update: lock and read the stripe's m
// parity units and, concurrently, read the old data; fold the delta into
// every parity unit with its own coefficient row; write the new data; write
// the new parity units, each write releasing its server's lock and retiring
// its intent. The reads overlap — "the client reads the data in the partial
// stripes and also the corresponding parity region" — which keeps the
// lock-hold window to the write phase (Figure 3). Every parity server is
// updated before any lock is released, so a crash at any point leaves
// intents open on exactly the servers whose units are not yet consistent,
// and replay reconstructs each from the data that landed.
//
// Lock acquisitions happen strictly one at a time in parity-unit order:
// every client updating a stripe walks its parity servers in the same j
// order, so no client can hold one of the stripe's locks while waiting on a
// lock another holder of the same stripe already has. Across stripes the
// Section 5.1 rule (the lower-numbered stripe's acquisition phase completes
// before the higher-numbered one starts) keeps the order total:
// onParityRead, if non-nil, is called exactly once, when the acquisition
// phase is over, and the caller uses it to start the next partial stripe's.
//
// Degraded mode (dead >= 0):
//   - A parity unit on the dead server is not maintained until rebuild; if
//     that leaves none (m = 1), the new data is simply written to the (all
//     live) data servers.
//   - If the dead server holds data units in the range, their old contents
//     are reconstructed from the survivors before the delta is applied, so
//     the updated parity encodes the new bytes and the next rebuild
//     materializes them.
func (f *File) writeRMW(span raid.Span, p []byte, onParityRead func(), dead int, tr uint64) error {
	g := f.geom
	stripe := g.StripeOf(span.Off)
	units := make([]int, 0, g.PU()) // the parity units to maintain: those not on the dead server
	for j := 0; j < g.PU(); j++ {
		if g.ParityServerOfUnit(stripe, j) != dead {
			units = append(units, j)
		}
	}
	if len(units) == 0 {
		if onParityRead != nil {
			onParityRead()
		}
		return f.sendWriteData(span, splitByServer(g, span.Off, p), dead, tr)
	}

	// 1. Parity reads (lock acquisitions, in j order) and old-data read, in
	// parallel.
	holds := make([]*ParityHold, 0, len(units))
	var pErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if onParityRead != nil {
			defer onParityRead()
		}
		// parity_lock_wait: how long the locked parity reads took end to end —
		// queueing behind another holder of this stripe's lock included.
		if f.lock {
			defer f.timePath("parity_lock_wait")()
		}
		for _, j := range units {
			h, err := f.holdParity(stripe, j, tr)
			if err != nil {
				pErr = err // the failed acquisition released itself
				return
			}
			holds = append(holds, h)
		}
	}()
	// The old data is scratch nothing outside this function ever sees (it is
	// merged into, XORed from, never sent), so it always goes back.
	oldBuf := wire.GetBuf(int(span.Len))
	defer wire.PutBuf(oldBuf)
	old := *oldBuf
	dErr := f.readRaw(span, old, dead, tr)
	<-done
	if pErr == nil && dErr == nil && dead >= 0 {
		dErr = f.reconstructOldPieces(span, old, []int{dead}, tr)
	}
	if err := cmp.Or(pErr, dErr); err != nil {
		// No data write has started, so the stripe is untouched: free what
		// we hold with unchanged parity writes so a failure here cannot
		// wedge other clients.
		eachHold(holds, tr, (*ParityHold).release) //nolint:errcheck // already failing
		return err
	}

	// 2. New parity_j = old parity_j + Coef(j,i)*(old_i + new_i).
	if f.compute {
		f.chargeParity(len(holds), 2*span.Len)
		for _, h := range holds {
			core.ApplyParityDelta(g, f.code, h.j, span.Off, old, p, h.resp.Data)
		}
	}

	// 3. Write the new data and the new parity; the parity writes release
	// the locks. For the protocol's consistency guarantee (concurrent writes
	// to non-overlapping regions) no ordering between them is needed:
	// another client's delta never involves this range's data, and the
	// parity units themselves are serialized by the locks. Crash consistency
	// is a different matter — see writeRMWCommit for the two orderings.
	return f.writeRMWCommit(span, p, holds, dead, tr)
}

// writeRMWCommit runs the write phase of a read-modify-write.
//
// With Policy.CrashSafeRMW the phases are strictly ordered: the data writes
// must all complete before any unlocking parity write is issued. The
// unlocking write is what retires the stripe's intent record on that parity
// server, so under this ordering an intent is only ever retired when data
// and that server's parity are both fully in place — a crash at any earlier
// point leaves an open intent, and recovery's replay reconstructs the parity
// from whatever data landed. If a data write fails partway, parity and data
// may already disagree, so the locks are released dirty: each server
// fail-stops the stripe (abandons the intent, refuses new locks) until
// replay reconciles it.
//
// Without CrashSafeRMW the two run concurrently — the paper's layout, which
// keeps the lock-hold window to the write phase (Figure 3) but reopens the
// write hole if a client can crash between them.
func (f *File) writeRMWCommit(span raid.Span, p []byte, holds []*ParityHold, dead int, tr uint64) error {
	data := splitByServer(f.geom, span.Off, p)
	if f.lock && f.c.getPolicy().CrashSafeRMW {
		if err := f.sendWriteData(span, data, dead, tr); err != nil {
			eachHold(holds, tr, (*ParityHold).abandon) //nolint:errcheck // never fails
			return err
		}
		return eachHold(holds, tr, (*ParityHold).commit)
	}
	var wErr error
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		wErr = f.sendWriteData(span, data, dead, tr)
	}()
	pwErr := eachHold(holds, tr, (*ParityHold).commit)
	<-wdone
	return cmp.Or(pwErr, wErr)
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
	// The pass gate's shared side makes the cutover atomic with respect to
	// in-flight reads — AdoptRef swaps ref and geometry under the exclusive
	// side — and keeps a read from seeing a resync item half replayed.
	if !f.gateExempt {
		f.c.passGate.RLock()
		defer f.c.passGate.RUnlock()
	}
	if idx, down := f.c.anyDown(f.ref); down {
		f.c.metrics.degradedReads.Add(1)
		n, err := f.readDegraded(p, off, idx, tr)
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
			n, derr := f.readDegraded(p, off, dead, tr)
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
// defined over the in-place data. The pieces of server dead (-1: none) are
// not read and left as they were, for the caller to reconstruct.
func (f *File) readRaw(span raid.Span, dst []byte, dead int, tr uint64) error {
	reads, err := f.fetchSpans(span, true, tr, onlyServer(dead))
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
