package client

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	c     *Client
	ref   wire.FileRef
	geom  raid.Geometry
	shape raid.Shape
	size  atomic.Int64

	// The parity engine's configuration, resolved from ref in setLayout and
	// nowhere else. code is the code groups' RS(k, r) code, nil for RAID0: a
	// stripe's RS(k = N-m, m) for a parity shape — RAID5 and Hybrid are its
	// m = 1 case, whose one coefficient row is all ones, plain XOR — and the
	// repetition code RS(1, 1) for a mirror. lock and compute are off only
	// under the client's Ablation. opPrefix names the write-path histograms;
	// encodeOp and encodeCount, the histogram and the Metrics counter of an
	// encode portion (nil for RAID0, which counts none).
	code        *gf256.RS
	lock        bool
	compute     bool
	opPrefix    string
	encodeOp    string
	encodeCount *int64

	// gateExempt marks a handle whose caller already holds the pass gate:
	// the shadow layout of a migration (written under the gate's shared
	// side) and the engine's handles inside Pass.Exclusive sections. Such a
	// handle touches the gate on no path. See pass.go.
	gateExempt bool
}

// setLayout points the handle at the layout ref describes: geometry, shape,
// parity code and the client's ablation. fileFor calls it on a fresh handle,
// AdoptRef under the pass gate's exclusive side.
func (f *File) setLayout(ref wire.FileRef) error {
	l, err := raid.Resolve(ref)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if l.Servers > len(f.c.srv) {
		return fmt.Errorf("client: file spans %d servers, cluster has %d", l.Servers, len(f.c.srv))
	}
	var code *gf256.RS
	if k, r := l.GroupSize(); r > 0 {
		if code, err = gf256.NewRS(k, r); err != nil {
			return err
		}
	}
	f.ref, f.geom, f.shape, f.code = ref, l.Geometry, l.Shape, code
	f.lock, f.compute = f.c.ablation != AblateLock, f.c.ablation != AblateCompute
	// Multi-parity files report under series of their own.
	f.opPrefix = "op_write_"
	if ref.Scheme == wire.ReedSolomon {
		f.opPrefix = "op_write_rs_"
	}
	switch {
	case l.Mirror:
		f.encodeOp, f.encodeCount = "op_write_mirror", &f.c.metrics.MirrorWrites
	case l.Parity > 0:
		f.encodeOp, f.encodeCount = f.opPrefix+"full_stripe", &f.c.metrics.FullStripes
	default:
		f.encodeOp, f.encodeCount = "op_write_plain", nil
	}
	return nil
}

// Ref returns the file's wire reference.
func (f *File) Ref() wire.FileRef { return f.ref }

// Geometry returns the file's stripe geometry.
func (f *File) Geometry() raid.Geometry { return f.geom }

// Shape returns what the file's scheme means for its layout.
func (f *File) Shape() raid.Shape { return f.shape }

// Layout returns the file's resolved layout, and with it its code groups.
func (f *File) Layout() raid.Layout { return raid.Layout{Geometry: f.geom, Shape: f.shape} }

// Code returns the RS(k, r) code of the file's code groups — a stripe's
// RS(k, m), plain XOR for RAID5 and Hybrid, or a mirror's RS(1, 1) — or nil
// for RAID0, which keeps no redundancy.
func (f *File) Code() *gf256.RS { return f.code }

// Scheme returns the file's redundancy scheme.
func (f *File) Scheme() wire.Scheme { return f.ref.Scheme }

// Size returns the file's logical size as known to this client.
func (f *File) Size() int64 { return f.size.Load() }

// WriteAt writes len(p) bytes at offset off, maintaining the file's
// redundancy per its scheme.
//
// With one server marked down, every file with redundancy accepts degraded
// writes (an extension beyond the paper's prototype): data destined for the
// failed server is carried by its redundancy — the mirror copy, the stripe
// parity, or the mirrored overflow region — and restored by the next
// Rebuild. Raid0, an ablated engine, and any file with more than one server
// down return ErrDegradedWrite before a request goes out.
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
		// Degraded writes carry one failure (the dirty-region log and delta
		// resync are per-outage); with several servers out the file stays
		// readable, within its shape's tolerance, but rejects writes until
		// rebuild.
		if f.shape.Tolerates() == 0 || !f.lock || !f.compute || len(f.c.allDown(f.ref)) > 1 {
			return 0, ErrDegradedWrite
		}
		dead = d
	}
	plan := planWrite(f.Layout(), off, int64(len(p)))
	execDead := dead
	forwarded := false
	if dead >= 0 {
		if ps := f.c.pass(f.ref.ID, dead); ps != nil &&
			syncExtentEnd(f.Layout(), plan, off, int64(len(p))) <= ps.Cursor() {
			// The whole extent is behind the resync cursor: the recovering
			// server is current there, so write to it directly instead of
			// re-dirtying the log.
			forwarded = true
			execDead = -1
		} else if err := f.c.recordDirty(f.ref, f.Layout(), plan, dead); err != nil {
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
		atomic.AddInt64(&f.c.metrics.RelayoutDualWrite, 1)
	}
	atomic.AddInt64(&f.c.metrics.Writes, 1)
	atomic.AddInt64(&f.c.metrics.WriteBytes, int64(len(p)))
	switch {
	case forwarded:
		atomic.AddInt64(&f.c.metrics.ResyncForwards, 1)
	case dead >= 0:
		atomic.AddInt64(&f.c.metrics.DegradedWrites, 1)
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

// writeMode says how one portion of a write is stored: the paper's Section 4
// rule over code groups. A redundancy member's byte at column x depends only
// on the k data bytes at column x, so where a write covers a column of every
// data member of a group the column is encoded fresh; elsewhere it is
// updated under the group's lock, or diverted to the overflow pair.
type writeMode uint8

const (
	// modeEncode writes whole groups: data in place and redundancy members
	// encoded from it alone, with no old bytes read and no lock — a parity
	// shape's full stripes, every RAID1 write (RS(1, 1) groups are one unit
	// wide, so any write covers each column of its one data member) and every
	// RAID0 write, which has no redundancy to send.
	modeEncode writeMode = iota
	// modeRMW updates a partial stripe's data in place and its parity with a
	// delta, under the parity lock.
	modeRMW
	// modeOverflow sends a partial stripe's new bytes, and a copy, to the
	// mirrored overflow pair, leaving the in-place data and parity untouched.
	modeOverflow
)

// portion is one contiguous piece of a planned write.
type portion struct {
	span raid.Span
	mode writeMode
}

// planWrite splits the write [off, off+length) into its portions: in file
// order, covering it exactly, none empty. A layout without parity stores the
// whole write by encode. A parity layout encodes the body of whole stripes
// and updates the at-most-two partial stripes around it by read-modify-write
// — unless it has an overflow region, which is how Hybrid selects "the
// appropriate reliability level on the fly": its partial stripes go to the
// mirrored overflow pair.
func planWrite(l raid.Layout, off, length int64) []portion {
	if length <= 0 {
		return nil
	}
	if l.Parity == 0 {
		return []portion{{raid.Span{Off: off, Len: length}, modeEncode}}
	}
	partial := modeRMW
	if l.Overflow {
		partial = modeOverflow
	}
	head, body, tail := l.Decompose(off, length)
	var plan []portion
	for _, pt := range [...]portion{{head, partial}, {body, modeEncode}, {tail, partial}} {
		if pt.span.Len > 0 {
			plan = append(plan, pt)
		}
	}
	return plan
}

// execute runs the portions of a write plan. The RAID5 deadlock-avoidance
// rule (Section 5.1) requires only that the lower-numbered partial stripe's
// parity READ completes before the higher-numbered one is issued: a leading
// read-modify-write portion therefore starts first, and the remaining
// portions launch as soon as its parity read has returned, overlapping its
// write phase.
//
// A plan holds at most one encode portion. Its data goes out as one
// WriteData per server and, beside it, its redundancy members as one
// request per server that keeps any (memberBatch); the redundancy is
// computed before either is sent, so both hit the wire together. A
// read-modify-write or overflow portion is one send of its own.
func (f *File) execute(plan []portion, off int64, p []byte, dead int, tr uint64) error {
	data := func(s raid.Span) []byte { return p[s.Off-off : s.End()-off] }

	var headErr error
	headDone := make(chan struct{})
	rest := plan
	if len(rest) > 1 && rest[0].mode == modeRMW {
		head := rest[0]
		rest = rest[1:]
		atomic.AddInt64(&f.c.metrics.RMWs, 1)
		lockHeld := make(chan struct{})
		f.c.pool.Go(func() {
			defer close(headDone)
			defer f.timePath(f.opPrefix + "rmw")()
			headErr = f.writeRMW(head.span, data(head.span), func() { close(lockHeld) }, dead, tr)
		})
		<-lockHeld // head's parity read has completed (or failed)
	} else {
		close(headDone)
	}

	var sends [4]func() error // at most: overflow, encode's data and members, overflow
	n := 0
	var stopEncode func()
	for _, pt := range rest {
		span, b := pt.span, data(pt.span)
		switch pt.mode {
		case modeEncode:
			if f.encodeCount != nil {
				atomic.AddInt64(f.encodeCount, 1)
			}
			stopEncode = f.timePath(f.encodeOp)
			if members := f.encode(span, b); members != nil {
				sends[n] = func() error { return members.flush(f, dead, tr) }
				n++
			}
			sends[n] = func() error { return f.sendWriteData(span, bytesBy(f.geom, span.Off, b, f.geom.ServerOf), dead, tr) }
		case modeRMW:
			sends[n] = func() error {
				atomic.AddInt64(&f.c.metrics.RMWs, 1)
				defer f.timePath(f.opPrefix + "rmw")()
				return f.writeRMW(span, b, nil, dead, tr)
			}
		case modeOverflow:
			sends[n] = func() error {
				atomic.AddInt64(&f.c.metrics.OverflowWrites, 1)
				defer f.timePath("op_write_overflow")()
				return f.writeOverflow(span, b, dead, tr)
			}
		}
		n++
	}

	// The last send runs on this goroutine: a write of one partial stripe,
	// the common small write, runs here alone.
	err := f.c.eachServer(n, nil, func(i int) error { return sends[i]() })
	if stopEncode != nil {
		stopEncode()
	}
	<-headDone
	return cmp.Or(headErr, err)
}

// timePath starts a timer for one per-path histogram and returns the stop
// function; meant for defer at the top of each write-path branch.
func (f *File) timePath(name string) func() {
	start := time.Now()
	return func() { f.c.Observe(name, f.c.sinceStart(start)) }
}

// sendWriteData ships span's bytes to the data files, each server its
// pieces (bytesBy) straight from the caller's buffer, skipping the dead
// server (whose contents the redundancy carries) when dead >= 0. Every
// request names the whole span.
func (f *File) sendWriteData(span raid.Span, pieces [][][]byte, dead int, tr uint64) error {
	spans := []wire.Span{{Off: span.Off, Len: span.Len}}
	has := func(i int) bool { return len(pieces[i]) > 0 && i != dead }
	return f.c.eachServer(f.geom.Servers, has, func(i int) error {
		_, err := f.c.callSrvT(i, &wire.WriteData{File: f.ref, Spans: spans, From: pieces[i]}, tr)
		return err
	})
}

// An encode portion's in-place data write implicitly invalidates the
// overflow extents it covers at each server (Section 4's migration back to
// RAID5); no extra messages are needed.

// ParityHold is one parity unit of a stripe, read to be updated and written
// back — under its server's stripe lock, unless the engine runs the no-lock
// ablation: one of the 1..m steps of a read-modify-write, which holds only
// the unit's bytes its update changes, or the scrubber's byte-level stripe
// check, which holds the whole unit.
//
// A locked read carries a fresh owner token: if it fails client-side
// (deadline, dead link) we cannot know whether the server granted the lock,
// and the token lets us release exactly that possible ghost acquisition
// without ever touching a lock granted to anyone else. It also carries the
// policy's lock lease: the server opens a stripe intent with that deadline,
// and lease.go heartbeats it until the intent is retired — so a holder that
// dies costs one lease, not a wedged stripe.
type ParityHold struct {
	f       *File
	stripe  int64
	j, srv  int            // parity unit j, on server srv
	token   uint64         // the acquisition's owner token; zero when no lock is taken
	ranges  []wire.Span    // the in-unit ranges held; nil: the whole unit
	resp    *wire.ReadResp // the held bytes, packed, updated in place in their pooled buffer
	written bool           // the closing parity write was acknowledged
}

// HoldParity reads the whole of parity unit j of stripe, acquiring its lock.
func (f *File) HoldParity(stripe int64, j int) (*ParityHold, error) {
	return f.holdParity(stripe, j, nil, 0)
}

// holdParity reads the bytes ranges names (nil: all) of parity unit j of
// stripe, acquiring its lock; the hold writes the same ranges back.
func (f *File) holdParity(stripe int64, j int, ranges []wire.Span, tr uint64) (*ParityHold, error) {
	h := &ParityHold{f: f, stripe: stripe, j: j, srv: f.geom.ParityServerOfUnit(stripe, j), ranges: ranges}
	if f.lock {
		h.token = nextLockToken()
	}
	resp, err := f.c.callSrvT(h.srv, &wire.ReadParity{
		File: f.ref, Stripes: []int64{stripe}, Lock: f.lock, Owner: h.token,
		LeaseMS: leaseMS(f.c.getPolicy()), Ranges: ranges,
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
	want := f.geom.StripeUnit
	if ranges != nil {
		want = bytesFor(ranges)
	}
	if int64(len(h.resp.Data)) != want {
		h.cancel(false) // granted but unusable; the stripe is untouched
		return nil, fmt.Errorf("client: parity read returned %d bytes, want %d",
			len(h.resp.Data), want)
	}
	if f.lock {
		f.c.trackLease(h.srv, f.ref, stripe, h.token)
	}
	return h, nil
}

// Data returns the held bytes as read: the whole parity unit, for a hold
// HoldParity took.
func (h *ParityHold) Data() []byte { return h.resp.Data }

// OtherIntents reports whether the hold's stripe carries another owner's
// intent on the hold's server: live, if one is open or pending — that
// update released its lock with its parity write, and its data writes may
// still be landing — and abandoned, if one was given up and the stripe
// awaits replay. This client's own completed updates awaiting their retire
// are not counted: both their writes were acknowledged. Asked under the
// hold, it sees every update that can still change the stripe: no later
// one can start while the hold is kept. A hold that took no lock reports
// neither.
func (h *ParityHold) OtherIntents() (live, abandoned bool, err error) {
	if !h.f.lock {
		return false, false, nil
	}
	resp, err := h.f.c.callSrv(h.srv, &wire.ListIntents{File: h.f.ref})
	if err != nil {
		return false, false, err
	}
	lr, ok := resp.(*wire.ListIntentsResp)
	if !ok {
		return false, false, fmt.Errorf("client: unexpected intent listing %T", resp)
	}
	for _, in := range lr.Intents {
		if in.Stripe == h.stripe && in.Owner != h.token && !h.f.c.completedUpdate(in.Owner) {
			live = live || !in.Abandoned
			abandoned = abandoned || in.Abandoned
		}
	}
	return live, abandoned, nil
}

// Write stores data as the held bytes' new contents, which releases the
// lock; the intent is queued for retirement. It is for a holder that has
// left the stripe consistent with data — a repair, not an update in flight.
func (h *ParityHold) Write(data []byte) error {
	err := h.write(data, false, 0)
	h.retire()
	return err
}

// write is the closing parity write. dirty says whether the stripe's data
// may have changed under this hold without the parity to match: if the
// write's outcome is unknown the lingering acquisition is released with that
// flag, and a dirty release fail-stops the stripe until intent replay
// reconciles it. An acknowledged write leaves the lease tracked: the intent
// stays pending on the server until the hold's owner retires it.
func (h *ParityHold) write(data []byte, dirty bool, tr uint64) error {
	c := h.f.c
	_, err := c.callSrvT(h.srv, &wire.WriteParity{
		File: h.f.ref, Stripes: []int64{h.stripe}, Ranges: h.ranges, Data: data, Unlock: h.f.lock, Owner: h.token,
	}, tr)
	h.written = err == nil
	if !h.f.lock || err == nil {
		return err
	}
	c.untrackLease(h.token)
	if errors.Is(err, wire.ErrLeaseExpired) {
		// The server expired our lease and fenced this late write off; the
		// stripe is fail-stopped there until replay reconstructs the unit.
		atomic.AddInt64(&c.metrics.LeaseExpiries, 1)
	} else if isUnavailable(err) {
		// The unlocking write may have been lost before the server applied
		// it; make sure the acquisition cannot linger.
		c.releaseParityLock(h.srv, h.f.ref, h.stripe, h.token, dirty)
	}
	return err
}

// retire queues the intent of a hold whose closing write was acknowledged
// over a consistent stripe; a hold that took no lock has none.
func (h *ParityHold) retire() {
	if h.f.lock && h.written {
		h.f.c.queueRetire(h.srv, h.f.ref, h.stripe, h.token)
	}
}

// Release drops the lock with an unchanged parity write-back: the stripe was
// not touched. It is a no-op for a scheme that took no lock.
func (h *ParityHold) Release() error { return h.release(0) }

func (h *ParityHold) release(tr uint64) error {
	if !h.f.lock {
		return nil
	}
	err := h.write(h.resp.Data, false, tr)
	h.retire()
	return err
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
// place, over data that has changed. Its caller retires or dirty-releases
// the intent once it knows how the data writes beside it went. The response
// the new parity was computed in is released once the write has returned,
// however it went: no call returns while its frame is being written.
func (h *ParityHold) commit(tr uint64) error {
	err := h.write(h.resp.Data, true, tr)
	h.resp.Release()
	return err
}

// eachHold runs step on every hold concurrently, the last on the calling
// goroutine, and joins the errors.
func eachHold(holds []*ParityHold, tr uint64, step func(*ParityHold, uint64) error) error {
	if len(holds) == 0 {
		return nil
	}
	return holds[0].f.c.eachServer(len(holds), nil, func(i int) error { return step(holds[i], tr) })
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

// writeRMW performs a partial-stripe update in two rounds: lock and read
// the stripe's m parity units and, concurrently, read the old data; fold the
// delta into every parity unit with its own coefficient row; then write the
// new data and, beside it, the new parity units, each parity write releasing
// its server's lock. Only the parity bytes the update changes move, both
// ways: the span's in-unit ranges (raid.Geometry.UnitRanges), the same for every unit
// j. The reads overlap — "the client reads the data in the partial stripes
// and also the corresponding parity region" — which keeps the lock-hold
// window to the write phase (Figure 3). Every parity server's intent is
// opened before anything is written and retired only after both writes were
// acknowledged, so a crash at any point leaves intents on exactly the
// servers whose units may not be consistent, and replay reconstructs each
// from the data that landed.
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
//     materializes them. That decode first waits, under the holds, until
//     no other update on the stripe is still landing (settleOthers).
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
		return f.sendWriteData(span, bytesBy(g, span.Off, p, g.ServerOf), dead, tr)
	}

	// 1. Parity reads (lock acquisitions, in j order) and old-data read, in
	// parallel. The goroutine that takes the holds also writes the new data
	// in step 3, once it is handed the pieces (nil: the update is off).
	ranges := g.UnitRanges(span.Off, span.Len)
	var holds []*ParityHold
	var pErr, wErr error
	held, done := make(chan struct{}), make(chan struct{})
	write := make(chan [][][]byte, 1)
	f.c.pool.Go(func() {
		defer close(done)
		holds, pErr = f.acquire(stripe, units, ranges, onParityRead, tr)
		close(held)
		if data := <-write; data != nil {
			wErr = f.sendWriteData(span, data, dead, tr)
		}
	})
	// Retire lists that have reached their batch go out beside this round,
	// so they cost no round of their own.
	f.c.sendDueRetires()
	// The old data is scratch nothing outside this function ever sees (it is
	// read into, XORed from, never sent), so it always goes back: readRaw
	// returns only once no call is still landing bytes in it.
	oldBuf := wire.GetBuf(int(span.Len))
	defer wire.PutBuf(oldBuf)
	old := *oldBuf
	dErr := f.readRaw(span, old, dead, tr)
	<-held
	if pErr == nil && dErr == nil && dead >= 0 {
		if len(serverPieces(g, span.Off, span.Len)[dead]) > 0 {
			dErr = f.settleOthers(holds)
		}
		if dErr == nil {
			dErr = f.reconstructOldPieces(span, old, []int{dead}, tr)
		}
	}
	if err := cmp.Or(pErr, dErr); err != nil {
		// No data write has started, so the stripe is untouched: free what
		// we hold with unchanged parity writes so a failure here cannot
		// wedge other clients.
		write <- nil
		<-done
		eachHold(holds, tr, (*ParityHold).release) //nolint:errcheck // already failing
		return err
	}

	// 2. New parity_j = old parity_j + Coef(j,i)*(old_i + new_i).
	if f.compute {
		f.chargeParity(len(holds), 2*span.Len)
		for _, h := range holds {
			g.ApplyParityDelta(f.code, h.j, span.Off, old, p, ranges, h.resp.Data)
		}
	}

	// 3. Write the new data on that goroutine and, here, beside it, the new
	// parity units, whose writes release the locks. (The parity write, the
	// longer of the two, stays on this goroutine, so the other one waking
	// late seldom leaves the two writes in separate rounds.) For the
	// protocol's consistency guarantee
	// (concurrent writes to non-overlapping regions) no ordering between
	// them is needed: another client's delta never involves this range's
	// data, and the parity units themselves are serialized by the locks. Nor
	// does crash consistency need one: each unlocking write leaves its
	// server's intent pending, and the intent is only retired once the data
	// writes were acknowledged too. If a data write fails, parity and data
	// may disagree, so the intents of the parity writes that landed are
	// released dirty: each server fail-stops the stripe (abandons the
	// intent, refuses new locks) until replay reconciles it. A parity write
	// that failed released its own acquisition.
	write <- bytesBy(g, span.Off, p, g.ServerOf)
	pwErr := eachHold(holds, tr, (*ParityHold).commit)
	<-done
	for _, h := range holds {
		if wErr != nil && h.written {
			h.cancel(true)
		} else {
			h.retire()
		}
	}
	return cmp.Or(pwErr, wErr)
}

// settleOthers waits, under a degraded read-modify-write's holds, until no
// other owner's update is in flight on the stripe. The dead server's old
// bytes are decoded from parity and the live data units, so they must agree
// at every offset the decode reads — not only in this update's own range.
// An update that released its lock with its parity write may not have
// landed its data yet; decoding across it would fold its unlanded half into
// this update's delta, and the dead unit would later rebuild wrong. The
// wait ends when that update's owner retires it (its lists go when full,
// when it goes idle and on its heartbeat). An update given up instead
// leaves the stripe torn (wire.ErrStripeTorn). The wait is bounded by one
// lock lease, or settleWait without one.
func (f *File) settleOthers(holds []*ParityHold) error {
	wait := settleWait
	if p := f.c.getPolicy(); p.LockLease > 0 {
		wait = p.LockLease
	}
	deadline := time.Now().Add(wait)
	for pause := time.Millisecond; ; pause = min(2*pause, 50*time.Millisecond) {
		busy := false
		for _, h := range holds {
			live, abandoned, err := h.OtherIntents()
			if err != nil {
				return err
			}
			if abandoned {
				return fmt.Errorf("client: stripe %d: %w", h.stripe, wire.ErrStripeTorn)
			}
			busy = busy || live
		}
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("client: stripe %d: another update still in flight after %v", holds[0].stripe, wait)
		}
		time.Sleep(pause)
	}
}

// settleWait bounds settleOthers when the policy leases no locks.
const settleWait = 10 * time.Second

// acquire takes the parity holds of one read-modify-write's units, one at a
// time in unit order, and returns the ones it got. onParityRead, if non-nil,
// is called when the acquisition phase is over, failed or not.
func (f *File) acquire(stripe int64, units []int, ranges []wire.Span, onParityRead func(), tr uint64) ([]*ParityHold, error) {
	if onParityRead != nil {
		defer onParityRead()
	}
	// parity_lock_wait: how long the locked parity reads took end to end —
	// queueing behind another holder of this stripe's lock included.
	if f.lock {
		defer f.timePath("parity_lock_wait")()
	}
	holds := make([]*ParityHold, 0, len(units))
	for _, j := range units {
		h, err := f.holdParity(stripe, j, ranges, tr)
		if err != nil {
			return holds, err // the failed acquisition released itself
		}
		holds = append(holds, h)
	}
	return holds, nil
}

// writeOverflow stores a partial-stripe portion the Hybrid way: the new
// bytes go to the overflow region of each piece's home server, and a mirror
// copy goes to the overflow-mirror region of the unit's mirror server, all
// of both copies' requests concurrently and the dead server skipped. No
// locks, no reads — the in-place data and parity stay untouched so the
// stripe remains reconstructable.
func (f *File) writeOverflow(span raid.Span, p []byte, dead int, tr uint64) error {
	g := f.geom
	var extents [2][][]wire.Span
	var data [2][][][]byte
	for c, serverOf := range [2]func(int64) int{g.ServerOf, g.MirrorServerOf} {
		extents[c], data[c] = piecesBy(g, span.Off, span.Len, serverOf), bytesBy(g, span.Off, p, serverOf)
	}
	// Request i is copy i / Servers to server i % Servers.
	has := func(i int) bool { return len(data[i/g.Servers][i%g.Servers]) > 0 && i%g.Servers != dead }
	return f.c.eachServer(2*g.Servers, has, func(i int) error {
		c, s := i/g.Servers, i%g.Servers
		_, err := f.c.callSrvT(s, &wire.WriteOverflow{
			File: f.ref, Extents: extents[c][s], From: data[c][s], Mirror: c == 1,
		}, tr)
		return err
	})
}

// ReadAt reads len(p) bytes at offset off. Bytes beyond what has been
// written read as zero. With a failed server it falls back to the scheme's
// degraded path.
func (f *File) ReadAt(p []byte, off int64) (n int, err error) {
	if off < 0 {
		return 0, fmt.Errorf("client: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	tr := obs.NewTraceID()
	opStart := time.Now()
	defer func() {
		f.c.Observe("op_read", f.c.sinceStart(opStart))
		if err == nil {
			atomic.AddInt64(&f.c.metrics.Reads, 1)
			atomic.AddInt64(&f.c.metrics.ReadBytes, int64(n))
		}
	}()
	// Reads come from the live (committed) layout throughout a migration.
	// The pass gate's shared side makes the cutover atomic with respect to
	// in-flight reads — AdoptRef swaps ref and geometry under the exclusive
	// side — and keeps a read from seeing a resync item half replayed.
	if !f.gateExempt {
		f.c.passGate.RLock()
		defer f.c.passGate.RUnlock()
	}
	if idx, down := f.c.anyDown(f.ref); down {
		atomic.AddInt64(&f.c.metrics.DegradedReads, 1)
		return f.readDegraded(p, off, idx, tr)
	}
	if err := f.fetchSpans(raid.Span{Off: off, Len: int64(len(p))}, p, false, tr, nil); err != nil {
		// A server died mid-read. For redundant schemes, fail over to the
		// reconstruction paths on the spot rather than surfacing an error
		// the redundancy exists to absorb.
		if dead, ok := FailedServer(err); ok && dead < f.geom.Servers && f.shape.Tolerates() > 0 {
			atomic.AddInt64(&f.c.metrics.Failovers, 1)
			atomic.AddInt64(&f.c.metrics.DegradedReads, 1)
			if n, derr := f.readDegraded(p, off, dead, tr); derr == nil {
				return n, nil
			}
		}
		return 0, err
	}
	return len(p), nil
}

// fetchSpans reads one span from every server that stores part of it, save
// those skip (nil: none) excludes, straight into dst, which holds the span.
// Each Read carries the slices of dst its server's pieces fill (Into): the
// rpc transport lands every response of exactly their length there, so one
// that did not land is the wrong length. raw skips server-side overflow
// patching. The pieces of a skipped server are left as they were. No call
// is still writing into dst when fetchSpans returns, even on error.
func (f *File) fetchSpans(span raid.Span, dst []byte, raw bool, tr uint64, skip func(srv int) bool) error {
	into := bytesBy(f.geom, span.Off, dst, f.geom.ServerOf)
	has := func(i int) bool { return len(into[i]) > 0 && (skip == nil || !skip(i)) }
	return f.c.eachServer(f.geom.Servers, has, func(i int) error {
		resp, err := f.c.callSrvT(i, &wire.Read{
			File:  f.ref,
			Spans: []wire.Span{{Off: span.Off, Len: span.Len}},
			Raw:   raw,
			Into:  into[i],
		}, tr)
		if err != nil {
			return err
		}
		rr := resp.(*wire.ReadResp)
		defer rr.Release()
		if rr.Landed() {
			return nil
		}
		want := 0
		for _, piece := range into[i] {
			want += len(piece)
		}
		return fmt.Errorf("client: server %d returned %d bytes, want %d", i, len(rr.Data), want)
	})
}

// readRaw fills dst with the in-place (data file) contents of span,
// bypassing overflow patching; the RMW path uses it because parity is
// defined over the in-place data. The pieces of server dead (-1: none) are
// not read and left as they were, for the caller to reconstruct.
func (f *File) readRaw(span raid.Span, dst []byte, dead int, tr uint64) error {
	return f.fetchSpans(span, dst, true, tr, onlyServer(dead))
}

// Compact migrates a Hybrid file's overflow-resident data back to RAID5
// and reclaims the overflow regions' storage — the background recovery
// process the paper sketches in Section 6.7: "a simple process that reads
// files in their entirety and writes them in a large chunk". After Compact,
// the file's long-term storage matches the RAID5 scheme's (plus at most one
// trailing partial stripe still mirrored in overflow). It is a no-op for a
// shape without overflow. The caller should run it when the file is
// quiescent.
func (f *File) Compact() error {
	if !f.shape.Overflow {
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
	atomic.AddInt64(&f.c.metrics.Compactions, 1)
	// Reclaim the dead slots.
	return f.c.eachServer(f.geom.Servers, nil, func(i int) error {
		if _, err := f.c.callSrv(i, &wire.CompactOverflow{File: f.ref}); err != nil {
			return err
		}
		_, err := f.c.callSrv(i, &wire.CompactOverflow{File: f.ref, Mirror: true})
		return err
	})
}

// Sync retires the intents of the client's completed read-modify-writes,
// flushes every server's stores for this file and publishes the file's size
// to the manager.
func (f *File) Sync() error {
	f.c.FlushRetires()
	if err := f.c.eachServer(f.geom.Servers, nil, func(i int) error {
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
	err := f.c.eachServer(f.geom.Servers, nil, func(i int) error {
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
