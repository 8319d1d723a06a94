// Stripe intent journal and client sessions — the server half of the RAID5
// write-hole closure.
//
// A locked ReadParity names its acquisition (session, seq) and opens one
// durable *write intent* per stripe before its response leaves the server.
// Each intent goes through one lifecycle:
//
//   - open: the lock is held and the update may be mid-flight;
//   - pending: the unlocking WriteParity landed and handed the lock on, but
//     the client's data writes, sent beside it, may not have; the intent
//     retires once the session's watermark passes its seq;
//   - abandoned: the session expired, the client released it dirty
//     (UnlockParity), or the server restarted.
//
// After any crash the journal's surviving intents are exactly the stripes
// whose parity may not match their data.
//
// A session is one client's presence on this server: one lease, renewed by
// its RenewLease heartbeat and by its locked reads, and one timer. Its
// watermark W, riding both, says every acquisition of the session with a
// seq at or below W has completed, so the server retires the session's
// pending intents at or below it; the session keeps its open and pending
// intents ordered by seq, so that costs time in proportion to what it
// retires. When the lease passes, the session expires: every open and
// pending intent it holds is abandoned, the locks they hold are revoked and
// their queues woken canceled — a dead client can no longer wedge a stripe
// forever — and later locked reads of the session are refused
// (wire.ErrLeaseExpired). A session with no live intent and no lease holds
// no state.
//
// Abandoned stripes fail-stop: new lock acquisitions are refused
// (wire.ErrStripeTorn) until recovery replays the stripe with
// ResolveIntent, or a fresh full-stripe parity write supersedes it. A
// pending intent does not stop the next locker: it holds the lock of a
// stripe whose parity already carries the previous update. So a pending
// intent can go abandoned while another acquisition holds the lock; that
// holder, and any acquisition already queued behind it, carries on, and
// replay waits for them (ResolveIntent refuses while any intent on the
// stripe is live) before it re-encodes parity from data that includes their
// bytes.
package server

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"csar/internal/journal"
	"csar/internal/obs"
	"csar/internal/wire"
)

// intentJournalName is the server-wide journal on the local backend, with
// its pair's second log at intentJournalName.1.
const intentJournalName = "intents.journal"

// intentJournalCompactBytes is the intent journal's compaction floor: the
// log compacts to one record per live intent once it passes this and twice
// that live set. Under load the live set rarely drains to zero, which is the
// other point where the journal empties.
const intentJournalCompactBytes = 16 << 10

// expiredSessionsMax bounds the expired sessions the server remembers to
// refuse late frames of. A client learns of its expiry from the first
// frame refused and starts a new session, so only frames already in flight
// then can carry an expired session.
const expiredSessionsMax = 1024

// Journal record operations.
const (
	intentOpOpen uint8 = iota + 1
	intentOpRetire
	intentOpAbandon
)

// acq names one parity-lock acquisition: the client session that took it
// and the seq the client gave it. Session zero names none.
type acq struct{ session, seq uint64 }

// intentKey names one intent across the server's files: the journal's unit.
type intentKey struct {
	fileID uint64
	stripe int64
	acq
}

// intentEntry is one intent-journal record, the payload of one journal
// frame:
//
//	u8 op | u64 file ID | i64 stripe | u64 session | u64 seq
type intentEntry struct {
	op uint8
	intentKey
}

// intentEntryLen is the encoded length of an intentEntry.
const intentEntryLen = 33

// codec reads or writes one record.
func (r *intentEntry) codec(c *wire.Codec) {
	c.U8(&r.op)
	c.U64(&r.fileID)
	c.I64(&r.stripe)
	c.U64(&r.session)
	c.U64(&r.seq)
}

// payload encodes the record.
func (r intentEntry) payload() []byte {
	e := wire.Encoding(make([]byte, 0, intentEntryLen))
	r.codec(&e)
	return e.Buf
}

// intentRec is one write intent of file sf, held under imu.
type intentRec struct {
	intentKey
	sf        *serverFile
	pending   bool // the unlocking parity write landed; awaiting the watermark
	abandoned bool
}

// session is one client session's state on this server, held under imu.
type session struct {
	id       uint64
	deadline time.Time    // zero: no lease
	timer    *time.Timer  // the session's one lease timer, armed with its first lease
	live     []*intentRec // its open and pending intents, by seq
}

// IntentStats is the server's intent/lease counter set, published in its
// registry under the tags.
type IntentStats struct {
	Opened        int64 `obs:"intents_opened"`    // intents opened by locked parity reads
	Retired       int64 `obs:"intents_retired"`   // pending intents passed by their session's watermark, and intents released clean
	Abandoned     int64 `obs:"intents_abandoned"` // session expiries + dirty UnlockParity + crash-restart loads
	Resolved      int64 `obs:"intents_resolved"`  // abandoned intents retired by replay or a full-stripe write
	LeaseRenewals int64 `obs:"lease_renewals"`    // session heartbeats that renewed a live session's lease
	LeaseExpiries int64 `obs:"lease_expiries"`    // sessions expired with live intents, their locks revoked
}

// IntentStats returns the current intent/lease counters.
func (s *Server) IntentStats() IntentStats { return obs.LoadCounters(s.intents) }

// journalLocked appends one op record per intent and keeps the journal's
// live set. Opens and abandons are synced before it returns. Retires are
// not: a lost retire only brings its intent back abandoned after a restart,
// and replaying a stripe whose parity matches changes nothing. When a
// retire drains the live set the journal is emptied instead — the history
// is balanced open/retire pairs, so an empty live set compacts to an empty
// log — and whenever the pair's rule calls for it (journal.Pair.Due, with
// intentJournalCompactBytes as the floor) the journal is compacted to one
// record per live intent, through the pair, so no crash point loses a live
// intent. Caller holds imu.
func (s *Server) journalLocked(op uint8, keys ...intentKey) {
	recs := make([][]byte, len(keys))
	for i, k := range keys {
		recs[i] = intentEntry{op, k}.payload()
		if op == intentOpRetire {
			delete(s.jLive, k)
		} else {
			s.jLive[k] = op
		}
	}
	if len(s.jLive) > 0 { // else a retire drained it: compaction empties the journal
		s.jlog.Append(op != intentOpRetire, recs...) //nolint:errcheck // local store
	}
	if s.jlog.Due(intentJournalCompactBytes, int64(len(s.jLive))*(journal.FrameHeader+intentEntryLen)) {
		s.compactJournal()
	}
}

// compactJournal rewrites the journal as one record per live intent, the
// form loadIntents leaves it in; with none live it empties it. Caller holds
// imu.
func (s *Server) compactJournal() {
	recs := make([][]byte, 0, len(s.jLive)+1) // room for the pair's seal
	for k, op := range s.jLive {
		recs = append(recs, intentEntry{op, k}.payload())
	}
	s.jlog.Compact(recs...) //nolint:errcheck // local store
}

// loadIntents replays the journal at startup. Every surviving intent —
// open, pending or already abandoned — is marked abandoned: the server just
// restarted, so no pre-crash update can still be in flight and each such
// stripe is possibly torn. Survivors are parked in s.pendingIntents and
// adopted when the file record is first materialized. The journal is then
// compacted to one abandon record per survivor, or emptied when none
// survives, so repeated crashes do not grow it. A record of another length
// — one from before sessions, keyed by a single owner token — is refused
// (journal.ErrFormat), not guessed at: replay the intents with the build
// that wrote them first.
func (s *Server) loadIntents() {
	s.jLive = make(map[intentKey]uint8)
	s.jlog = s.openPair(intentJournalName, func(p []byte) error {
		if len(p) != intentEntryLen {
			return fmt.Errorf("%w: %d-byte intent record, want %d", journal.ErrFormat, len(p), intentEntryLen)
		}
		var r intentEntry
		d := wire.Decoding(p)
		r.codec(&d)
		switch r.op {
		case intentOpOpen, intentOpAbandon:
			s.jLive[r.intentKey] = intentOpAbandon
		case intentOpRetire:
			delete(s.jLive, r.intentKey)
		}
		return nil
	})
	s.pendingIntents = make(map[uint64][]intentKey)
	for k := range s.jLive {
		s.pendingIntents[k.fileID] = append(s.pendingIntents[k.fileID], k)
	}
	atomic.AddInt64(&s.intents.Abandoned, int64(len(s.jLive)))
	s.compactJournal()
}

// adoptIntents moves journal-loaded intents for a file onto its fresh
// serverFile record, before anyone else can see it. Caller holds s.mu.
func (s *Server) adoptIntents(sf *serverFile) {
	for _, k := range s.pendingIntents[sf.ref.ID] {
		sf.intents[k.stripe] = append(sf.intents[k.stripe], &intentRec{intentKey: k, sf: sf, abandoned: true})
	}
	delete(s.pendingIntents, sf.ref.ID)
}

// intentOf returns a's intent on stripe, or nil. Caller holds imu.
func (sf *serverFile) intentOf(stripe int64, a acq) *intentRec {
	for _, rec := range sf.intents[stripe] {
		if rec.acq == a {
			return rec
		}
	}
	return nil
}

// anyIntent reports whether an intent on stripe is abandoned (torn) or live
// (not abandoned) as asked. Caller holds imu.
func (sf *serverFile) anyIntent(stripe int64, abandoned bool) bool {
	for _, rec := range sf.intents[stripe] {
		if rec.abandoned == abandoned {
			return true
		}
	}
	return false
}

// removeLocked takes rec out of its file's intents; the caller journals the
// retirement. Caller holds imu.
func (sf *serverFile) removeLocked(rec *intentRec) {
	recs := slices.DeleteFunc(sf.intents[rec.stripe], func(r *intentRec) bool { return r == rec })
	if len(recs) == 0 {
		delete(sf.intents, rec.stripe)
	} else {
		sf.intents[rec.stripe] = recs
	}
}

// touchLocked applies a request's lease and watermark to its session: the
// lease is renewed leaseMS past now (zero renews nothing), and the pending
// intents at or below w retire. create makes the session if it holds no
// state; without it, nil is returned for such a session. A session that
// expired is refused. Caller holds imu.
func (s *Server) touchLocked(id uint64, leaseMS uint32, w uint64, create bool) (*session, error) {
	if _, gone := s.expired.has[id]; gone {
		return nil, fmt.Errorf("server: session %#x: %w", id, wire.ErrLeaseExpired)
	}
	ss := s.sessions[id]
	if ss == nil {
		if !create {
			return nil, nil
		}
		ss = &session{id: id}
		s.sessions[id] = ss
	}
	if leaseMS > 0 {
		dur := time.Duration(leaseMS) * time.Millisecond
		ss.deadline = time.Now().Add(dur)
		if ss.timer == nil {
			ss.timer = time.AfterFunc(dur, func() { s.leaseEnd(ss) })
		}
	}
	// The prefix at or below w: its pending intents retire, and the rest of
	// it — open intents, which W passing is no reason to trust — moves up
	// to where the kept suffix starts. Past the prefix nothing is visited.
	j := sort.Search(len(ss.live), func(i int) bool { return ss.live[i].seq > w })
	var retired []intentKey
	k := j
	for i := j - 1; i >= 0; i-- {
		if rec := ss.live[i]; rec.pending {
			rec.sf.removeLocked(rec)
			retired = append(retired, rec.intentKey)
		} else {
			k--
			ss.live[k] = rec
		}
	}
	ss.live = ss.live[k:]
	if len(retired) > 0 {
		s.journalLocked(intentOpRetire, retired...)
		atomic.AddInt64(&s.intents.Retired, int64(len(retired)))
		s.dropIdleLocked(ss)
	}
	return ss, nil
}

// dropIdleLocked forgets a session with no live intent and no lease.
// Caller holds imu.
func (s *Server) dropIdleLocked(ss *session) {
	if len(ss.live) == 0 && ss.timer == nil {
		delete(s.sessions, ss.id)
	}
}

// unlinkLocked takes a live intent that retired or was abandoned otherwise
// than by its session's watermark out of the session. Caller holds imu.
func (s *Server) unlinkLocked(rec *intentRec) {
	if ss := s.sessions[rec.session]; ss != nil {
		ss.live = slices.DeleteFunc(ss.live, func(r *intentRec) bool { return r == rec })
		s.dropIdleLocked(ss)
	}
}

// leaseEnd runs when a session's timer fires. A renewed deadline re-arms
// the timer. Past it, the session ends: with no live intent it is simply
// forgotten; otherwise it expires — it is remembered as expired, and each
// of its open and pending intents is fail-stopped as a dirty release would
// (abandoned, and the lock revoked if the acquisition still holds it).
func (s *Server) leaseEnd(ss *session) {
	s.imu.Lock()
	if s.sessions[ss.id] != ss {
		s.imu.Unlock()
		return
	}
	if rem := time.Until(ss.deadline); rem > 0 {
		ss.timer.Reset(rem)
		s.imu.Unlock()
		return
	}
	delete(s.sessions, ss.id)
	live := ss.live
	if len(live) > 0 {
		s.expired.add(ss.id, expiredSessionsMax)
		atomic.AddInt64(&s.intents.LeaseExpiries, 1)
	}
	s.imu.Unlock()
	for _, rec := range live {
		rec.sf.mu.Lock()
		_, woken := s.failStopLocked(rec.sf, rec.stripe, rec.acq)
		rec.sf.mu.Unlock()
		for _, w := range woken {
			w.ch <- false
		}
	}
}

// openIntents records one durable write intent per just-locked stripe under
// a's session, immediately before the locked ReadParity response returns,
// and renews the session's lease. The journal append happens before the
// client can act on the grant, so a crash at any later point leaves the
// stripe covered. A session that expired meanwhile is refused.
func (s *Server) openIntents(sf *serverFile, stripes []int64, a acq, leaseMS uint32) error {
	s.imu.Lock()
	defer s.imu.Unlock()
	ss, err := s.touchLocked(a.session, leaseMS, 0, true)
	if err != nil {
		return err
	}
	keys := make([]intentKey, len(stripes))
	for i, stripe := range stripes {
		rec := &intentRec{intentKey: intentKey{sf.ref.ID, stripe, a}, sf: sf}
		sf.intents[stripe] = append(sf.intents[stripe], rec)
		at := sort.Search(len(ss.live), func(i int) bool { return ss.live[i].seq > a.seq })
		ss.live = slices.Insert(ss.live, at, rec)
		keys[i] = rec.intentKey
	}
	s.journalLocked(intentOpOpen, keys...)
	atomic.AddInt64(&s.intents.Opened, int64(len(stripes)))
	return nil
}

// pendIntent marks a's open intent on stripe pending: its unlocking parity
// write landed and the lock is about to hand off. The intent stays live
// until the session's watermark passes it.
func (s *Server) pendIntent(sf *serverFile, stripe int64, a acq) {
	s.imu.Lock()
	if rec := sf.intentOf(stripe, a); rec != nil && !rec.abandoned {
		rec.pending = true
	}
	s.imu.Unlock()
}

// retireIntent retires a's open or pending intent on stripe: the client
// knows the stripe is consistent (nothing was written under the lock). A
// missing or abandoned intent is a no-op (the acquisition never got that
// far, or already expired — the caller's refusal paths handle those).
func (s *Server) retireIntent(sf *serverFile, stripe int64, a acq) {
	s.imu.Lock()
	defer s.imu.Unlock()
	rec := sf.intentOf(stripe, a)
	if rec == nil || rec.abandoned {
		return
	}
	sf.removeLocked(rec)
	s.unlinkLocked(rec)
	s.journalLocked(intentOpRetire, rec.intentKey)
	atomic.AddInt64(&s.intents.Retired, 1)
}

// failStopLocked abandons a's open or pending intent on stripe and, if a
// still holds the parity lock, revokes it, returning every queued waiter to
// be woken canceled (false) once sf.mu is released — the stripe's parity
// may be stale, so nobody may build a read-modify-write on it until replay.
// Late frames of the acquisition are refused from now on. It reports
// whether the intent transitioned: one missing or already abandoned changes
// nothing. Caller holds sf.mu.
func (s *Server) failStopLocked(sf *serverFile, stripe int64, a acq) (ok bool, woken []lockWaiter) {
	s.imu.Lock()
	rec := sf.intentOf(stripe, a)
	ok = rec != nil && !rec.abandoned
	if ok {
		rec.abandoned = true
		s.unlinkLocked(rec)
		s.journalLocked(intentOpAbandon, rec.intentKey)
		// Counted under imu, so anyone who sees the intent abandoned (a
		// ListIntents) sees it counted too.
		atomic.AddInt64(&s.intents.Abandoned, 1)
	}
	s.imu.Unlock()
	if !ok {
		return false, nil
	}
	sf.canceled.add(a, canceledTokensMax)
	if l := sf.locks[stripe]; l != nil && l.owner == a {
		woken, l.queue, l.owner = l.queue, nil, acq{}
	}
	return true, woken
}

// handleRenewLease is a session's heartbeat: it renews the lease and
// applies the watermark of a session the server knows, and answers whether
// it does. A session that expired, or that the server never knew or has
// forgotten (a restart, or a lease that ran out with nothing live), is not
// live, and the heartbeat creates nothing.
func (s *Server) handleRenewLease(m *wire.RenewLease) (wire.Msg, error) {
	s.imu.Lock()
	ss, err := s.touchLocked(m.Session, m.LeaseMS, m.Watermark, false)
	live := err == nil && ss != nil
	if live && m.LeaseMS > 0 {
		atomic.AddInt64(&s.intents.LeaseRenewals, 1)
	}
	s.imu.Unlock()
	return &wire.RenewLeaseResp{Live: live}, nil
}

// handleListIntents reports the file's write intents — the exact set of
// stripes whose parity may disagree with their data. Recovery replays the
// abandoned ones; the scrubber skips all of them.
func (s *Server) handleListIntents(m *wire.ListIntents) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	s.imu.Lock()
	resp := &wire.ListIntentsResp{Intents: make([]wire.Intent, 0, len(sf.intents))}
	for stripe, recs := range sf.intents {
		for _, rec := range recs {
			resp.Intents = append(resp.Intents, wire.Intent{
				Stripe: stripe, Session: rec.session, Seq: rec.seq, Abandoned: rec.abandoned,
			})
		}
	}
	s.imu.Unlock()
	return resp, nil
}

// handleResolveIntent retires an abandoned intent by installing parity
// recomputed from the stripe's data units. The check-write-retire runs
// atomically under sf.mu and imu: a concurrent full-stripe write retires
// the intent under the same locks before writing its own parity, so either
// this replay sees no intent and writes nothing, or the superseding parity
// write is ordered after the replayed bytes. An intent that is still open or
// pending belongs to a live update and is refused, and so is any stripe
// where another intent is live (wire.ErrStripeBusy): that update's data may
// still be landing, so parity recomputed now could miss its bytes. This is
// the one place that rule is decided. A missing intent is already resolved.
func (s *Server) handleResolveIntent(m *wire.ResolveIntent) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	if _, ok := sf.geom.ParityUnitOn(s.idx, m.Stripe); !ok {
		return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, m.Stripe)
	}
	su := sf.geom.StripeUnit
	if int64(len(m.Data)) != su {
		return nil, fmt.Errorf("server: resolve payload %d bytes, parity unit is %d", len(m.Data), su)
	}
	par := sf.store(s.disk, wire.StoreParity) // before sf.mu: store() locks it

	sf.mu.Lock()
	defer sf.mu.Unlock()
	s.imu.Lock()
	defer s.imu.Unlock()
	rec := sf.intentOf(m.Stripe, acq{m.Session, m.Seq})
	switch {
	case rec == nil:
		return &wire.OK{}, nil // already resolved or superseded
	case !rec.abandoned:
		return nil, fmt.Errorf("server: intent of stripe %d still open", m.Stripe)
	case sf.anyIntent(m.Stripe, false):
		return nil, fmt.Errorf("server: stripe %d: %w", m.Stripe, wire.ErrStripeBusy)
	}
	if err := s.writePiece(par, sf.geom.ParityLocalOffsetOn(s.idx, m.Stripe), m.Data); err != nil {
		return nil, err
	}
	sf.removeLocked(rec)
	s.journalLocked(intentOpRetire, rec.intentKey)
	atomic.AddInt64(&s.intents.Resolved, 1)
	return &wire.OK{}, nil
}

// resolveAbandonedByWrite retires every abandoned intent among stripes: a
// fresh full-stripe parity write is about to install parity that is
// correct by construction, superseding whatever tear the intents recorded.
// Called before the parity bytes are written (see handleResolveIntent for
// the ordering argument).
func (s *Server) resolveAbandonedByWrite(sf *serverFile, stripes []int64) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	s.imu.Lock()
	defer s.imu.Unlock()
	var resolved []intentKey
	for _, stripe := range stripes {
		for _, rec := range slices.Clone(sf.intents[stripe]) {
			if rec.abandoned {
				sf.removeLocked(rec)
				resolved = append(resolved, rec.intentKey)
			}
		}
	}
	if len(resolved) > 0 {
		s.journalLocked(intentOpRetire, resolved...)
		atomic.AddInt64(&s.intents.Resolved, int64(len(resolved)))
	}
}

// dropFileIntents retires every intent of a removed file.
func (s *Server) dropFileIntents(sf *serverFile) {
	s.imu.Lock()
	defer s.imu.Unlock()
	var keys []intentKey
	for stripe, recs := range sf.intents {
		for _, rec := range recs {
			if !rec.abandoned {
				s.unlinkLocked(rec)
			}
			keys = append(keys, rec.intentKey)
		}
		delete(sf.intents, stripe)
	}
	if len(keys) > 0 {
		s.journalLocked(intentOpRetire, keys...)
	}
}

// fifoSet remembers keys, forgetting the oldest past a bound.
type fifoSet[K comparable] struct {
	has   map[K]struct{}
	order []K
}

// add remembers k, forgetting the oldest key once more than max are held.
func (f *fifoSet[K]) add(k K, max int) {
	if _, ok := f.has[k]; ok {
		return
	}
	if f.has == nil {
		f.has = make(map[K]struct{})
	}
	f.has[k] = struct{}{}
	f.order = append(f.order, k)
	if len(f.order) > max {
		delete(f.has, f.order[0])
		f.order = f.order[1:]
	}
}
