// Stripe intent journal and leased parity locks — the server half of the
// RAID5 write-hole closure.
//
// A locked ReadParity opens one durable *write intent* per stripe before
// its response leaves the server. Intents are keyed by (stripe, owner
// token), and each goes through one lifecycle:
//
//   - open: the lock is held and the update may be mid-flight;
//   - pending: the unlocking WriteParity landed and handed the lock on, but
//     the owner's data writes, sent beside it, may not have; the owner
//     retires the intent with a batched RetireIntents once both were
//     acknowledged;
//   - abandoned: the lease passed without a heartbeat or a retire, the
//     client released it dirty (UnlockParity), or the server restarted.
//
// After any crash the journal's surviving intents are exactly the stripes
// whose parity may not match their data. A lock acquisition may carry a
// lease deadline, renewed by the client's RenewLease heartbeat; it keeps
// running while the intent is pending. When it passes, the server revokes
// the lock if the owner still holds it, wakes the FIFO queue canceled and
// marks the intent abandoned — a dead client can no longer wedge a stripe
// forever. Abandoned stripes fail-stop: new lock acquisitions are refused
// (wire.ErrStripeTorn) until recovery replays the stripe with
// ResolveIntent, or a fresh full-stripe parity write supersedes it. A
// pending intent does not stop the next locker: it holds the lock of a
// stripe whose parity already carries the previous update. So a pending
// intent can go abandoned while another owner holds the lock; that holder,
// and any acquisition already queued behind it, carries on, and replay
// waits for them (ResolveIntent refuses while any intent on the stripe is
// live) before it re-encodes parity from data that includes their bytes.
package server

import (
	"fmt"
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

// Journal record operations.
const (
	intentOpOpen uint8 = iota + 1
	intentOpRetire
	intentOpAbandon
)

// intentEntry is one intent-journal record, the payload of one journal
// frame:
//
//	u8 op | u64 file ID | i64 stripe | u64 owner
type intentEntry struct {
	op     uint8
	fileID uint64
	stripe int64
	owner  uint64
}

// intentEntryLen is the encoded length of an intentEntry.
const intentEntryLen = 25

// codec reads or writes one record.
func (r *intentEntry) codec(c *wire.Codec) {
	c.U8(&r.op)
	c.U64(&r.fileID)
	c.I64(&r.stripe)
	c.U64(&r.owner)
}

// payload encodes the record.
func (r intentEntry) payload() []byte {
	e := wire.Encoding(make([]byte, 0, intentEntryLen))
	r.codec(&e)
	return e.Buf
}

// intentKey names one intent across the server's files: the journal's unit.
type intentKey struct {
	fileID uint64
	stripe int64
	owner  uint64
}

// intentRec is one (stripe, owner) write intent. A nil deadline timer means
// the acquisition asked for no lease (a client running with Policy.LockLease
// zero: correctness tests and the performance model); it then lives until
// its owner retires it, an UnlockParity cancellation, or a server restart.
type intentRec struct {
	owner     uint64
	pending   bool // the unlocking parity write landed; awaiting the owner's retire
	abandoned bool
	deadline  time.Time   // zero: no lease
	timer     *time.Timer // armed iff deadline is set
}

// IntentStats is the server's intent/lease counter set, published in its
// registry under the tags.
type IntentStats struct {
	Opened        int64 `obs:"intents_opened"`    // intents opened by locked parity reads
	Retired       int64 `obs:"intents_retired"`   // intents retired by their owner: RetireIntents or a clean UnlockParity
	RetireBatches int64 `obs:"retire_batches"`    // RetireIntents requests received
	Abandoned     int64 `obs:"intents_abandoned"` // lease expiries + UnlockParity + crash-restart loads
	Resolved      int64 `obs:"intents_resolved"`  // abandoned intents retired by replay or a full-stripe write
	LeaseRenewals int64 `obs:"lease_renewals"`    // stripes renewed by RenewLease
	LeaseExpiries int64 `obs:"lease_expiries"`    // leases the server revoked
}

// IntentStats returns the current intent/lease counters.
func (s *Server) IntentStats() IntentStats { return obs.LoadCounters(s.intents) }

// journalAppend appends one op record per intent of file fileID and keeps
// the journal's live set. Opens and abandons are synced before it returns.
// Retires are not: a lost retire only brings its intent back abandoned after
// a restart, and replaying a stripe whose parity matches changes nothing.
// When a retire drains the live set the journal is emptied instead — the
// history is balanced open/retire pairs, so an empty live set compacts to an
// empty log — and whenever the pair's rule calls for it (journal.Pair.Due,
// with intentJournalCompactBytes as the floor) the journal is compacted to
// one record per live intent, through the pair, so no crash point loses a
// live intent.
// Lock order: callers may hold sf.mu; jmu nests inside it.
func (s *Server) journalAppend(op uint8, fileID uint64, ids ...wire.IntentID) {
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = intentEntry{op, fileID, id.Stripe, id.Owner}.payload()
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	for _, id := range ids {
		k := intentKey{fileID, id.Stripe, id.Owner}
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
// jmu.
func (s *Server) compactJournal() {
	recs := make([][]byte, 0, len(s.jLive)+1) // room for the pair's seal
	for k, op := range s.jLive {
		recs = append(recs, intentEntry{op, k.fileID, k.stripe, k.owner}.payload())
	}
	s.jlog.Compact(recs...) //nolint:errcheck // local store
}

// loadIntents replays the journal at startup. Every surviving intent —
// open, pending or already abandoned — is marked abandoned: the server just
// restarted, so no pre-crash update can still be in flight and each such
// stripe is possibly torn. Survivors are parked in s.pendingIntents and
// adopted when the file record is first materialized. The journal is then
// compacted to one abandon record per survivor, or emptied when none
// survives, so repeated crashes do not grow it.
func (s *Server) loadIntents() {
	s.jLive = make(map[intentKey]uint8)
	s.jlog = s.openPair(intentJournalName, func(p []byte) error {
		var r intentEntry
		d := wire.Decoding(p)
		if r.codec(&d); d.Err() != nil {
			return d.Err()
		}
		k := intentKey{r.fileID, r.stripe, r.owner}
		switch r.op {
		case intentOpOpen, intentOpAbandon:
			s.jLive[k] = intentOpAbandon
		case intentOpRetire:
			delete(s.jLive, k)
		}
		return nil
	})
	s.pendingIntents = make(map[uint64][]wire.IntentID)
	for k := range s.jLive {
		s.pendingIntents[k.fileID] = append(s.pendingIntents[k.fileID], wire.IntentID{Stripe: k.stripe, Owner: k.owner})
	}
	atomic.AddInt64(&s.intents.Abandoned, int64(len(s.jLive)))
	s.compactJournal()
}

// adoptIntents moves journal-loaded intents for a file onto its fresh
// serverFile record. Caller holds s.mu.
func (s *Server) adoptIntents(sf *serverFile) {
	for _, id := range s.pendingIntents[sf.ref.ID] {
		sf.intents[id.Stripe] = append(sf.intents[id.Stripe], &intentRec{owner: id.Owner, abandoned: true})
	}
	delete(s.pendingIntents, sf.ref.ID)
}

// intentOf returns owner's intent on stripe, or nil. Caller holds sf.mu.
func (sf *serverFile) intentOf(stripe int64, owner uint64) *intentRec {
	for _, rec := range sf.intents[stripe] {
		if rec.owner == owner {
			return rec
		}
	}
	return nil
}

// torn reports whether any intent on stripe is abandoned: its parity may be
// stale. Caller holds sf.mu.
func (sf *serverFile) torn(stripe int64) bool {
	for _, rec := range sf.intents[stripe] {
		if rec.abandoned {
			return true
		}
	}
	return false
}

// live reports whether any intent on stripe is open or pending: an update's
// writes may still be landing. Caller holds sf.mu.
func (sf *serverFile) live(stripe int64) bool {
	for _, rec := range sf.intents[stripe] {
		if !rec.abandoned {
			return true
		}
	}
	return false
}

// dropIntent removes rec from stripe's intents and stops its lease; the
// caller journals the retirement. Caller holds sf.mu.
func (sf *serverFile) dropIntent(stripe int64, rec *intentRec) {
	if rec.timer != nil {
		rec.timer.Stop()
	}
	recs := sf.intents[stripe]
	for i, r := range recs {
		if r == rec {
			recs = append(recs[:i], recs[i+1:]...)
			break
		}
	}
	if len(recs) == 0 {
		delete(sf.intents, stripe)
	} else {
		sf.intents[stripe] = recs
	}
}

// openIntents records one durable write intent per just-locked stripe and
// arms its lease, immediately before the locked ReadParity response
// returns. The journal append happens before the client can act on the
// grant, so a crash at any later point leaves the stripe covered.
func (s *Server) openIntents(sf *serverFile, stripes []int64, owner uint64, leaseMS uint32) {
	for _, stripe := range stripes {
		sf.mu.Lock()
		rec := sf.intentOf(stripe, owner)
		if rec == nil {
			rec = &intentRec{owner: owner}
			sf.intents[stripe] = append(sf.intents[stripe], rec)
		} else { // the token re-locked a stripe it left pending
			if rec.timer != nil {
				rec.timer.Stop()
			}
			rec.pending = false
		}
		if leaseMS > 0 {
			dur := time.Duration(leaseMS) * time.Millisecond
			rec.deadline = time.Now().Add(dur)
			st := stripe
			rec.timer = time.AfterFunc(dur, func() { s.leaseCheck(sf, st, owner) })
		}
		s.journalAppend(intentOpOpen, sf.ref.ID, wire.IntentID{Stripe: stripe, Owner: owner})
		sf.mu.Unlock()
		atomic.AddInt64(&s.intents.Opened, 1)
	}
}

// pendIntent marks owner's open intent on stripe pending: its unlocking
// parity write landed and the lock is about to hand off. The intent keeps
// its lease until the owner retires it.
func (sf *serverFile) pendIntent(stripe int64, owner uint64) {
	sf.mu.Lock()
	if rec := sf.intentOf(stripe, owner); rec != nil && !rec.abandoned {
		rec.pending = true
	}
	sf.mu.Unlock()
}

// retireIntent retires owner's open or pending intent on stripe: the owner
// knows the stripe is consistent (nothing was written under the lock). A
// missing or abandoned intent is a no-op (the acquisition never got that
// far, or already expired — the caller's refusal paths handle those).
func (sf *serverFile) retireIntent(s *Server, stripe int64, owner uint64) {
	sf.mu.Lock()
	rec := sf.intentOf(stripe, owner)
	if rec == nil || rec.abandoned {
		sf.mu.Unlock()
		return
	}
	sf.dropIntent(stripe, rec)
	s.journalAppend(intentOpRetire, sf.ref.ID, wire.IntentID{Stripe: stripe, Owner: owner})
	sf.mu.Unlock()
	atomic.AddInt64(&s.intents.Retired, 1)
}

// handleRetireIntents retires each listed intent that is pending under its
// owner: both of its read-modify-write's writes were acknowledged. An intent
// that is open (its lock still held), abandoned, or unknown is left alone.
func (s *Server) handleRetireIntents(m *wire.RetireIntents) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&s.intents.RetireBatches, 1)
	retired := make([]wire.IntentID, 0, len(m.Intents))
	sf.mu.Lock()
	for _, id := range m.Intents {
		if rec := sf.intentOf(id.Stripe, id.Owner); rec != nil && rec.pending && !rec.abandoned {
			sf.dropIntent(id.Stripe, rec)
			retired = append(retired, id)
		}
	}
	if len(retired) > 0 {
		s.journalAppend(intentOpRetire, sf.ref.ID, retired...)
	}
	sf.mu.Unlock()
	atomic.AddInt64(&s.intents.Retired, int64(len(retired)))
	return &wire.OK{}, nil
}

// abandonIntentLocked marks owner's open or pending intent on stripe
// abandoned (lease revoked or the client released it dirty). The stripe
// fail-stops until replay. Caller holds sf.mu; reports whether the intent
// transitioned.
func (sf *serverFile) abandonIntentLocked(s *Server, stripe int64, owner uint64) bool {
	rec := sf.intentOf(stripe, owner)
	if rec == nil || rec.abandoned {
		return false
	}
	rec.abandoned = true
	if rec.timer != nil {
		rec.timer.Stop()
	}
	s.journalAppend(intentOpAbandon, sf.ref.ID, wire.IntentID{Stripe: stripe, Owner: owner})
	return true
}

// failStopLocked abandons owner's intent on stripe and, if owner still
// holds the parity lock, revokes it, waking every queued waiter canceled —
// the stripe's parity may be stale, so nobody may build a read-modify-write
// on it until replay. Caller holds sf.mu; the returned waiters must be woken
// (false) after it is released. Reports whether the intent transitioned.
func (sf *serverFile) failStopLocked(s *Server, stripe int64, owner uint64) (bool, []lockWaiter) {
	if !sf.abandonIntentLocked(s, stripe, owner) {
		return false, nil
	}
	// Late frames under the fenced token must be refused, like a
	// client-initiated cancellation.
	sf.rememberCanceled(owner)
	var woken []lockWaiter
	l := sf.locks[stripe]
	if l != nil && l.held && l.owner == owner {
		woken = l.queue
		l.queue = nil
		l.held = false
		l.owner = 0
	}
	return true, woken
}

// leaseCheck runs when a lease timer fires. A renewed deadline re-arms the
// timer; an expired one fail-stops the stripe: the intent is abandoned and,
// if the owner still holds the lock, the lock is revoked and the queue
// canceled.
func (s *Server) leaseCheck(sf *serverFile, stripe int64, owner uint64) {
	sf.mu.Lock()
	rec := sf.intentOf(stripe, owner)
	if rec == nil || rec.abandoned || rec.deadline.IsZero() {
		sf.mu.Unlock()
		return
	}
	if rem := time.Until(rec.deadline); rem > 0 {
		rec.timer.Reset(rem)
		sf.mu.Unlock()
		return
	}
	_, woken := sf.failStopLocked(s, stripe, owner)
	// Counted under the lock, so anyone who sees the intent abandoned (a
	// ListIntents) sees the expiry counted too.
	atomic.AddInt64(&s.intents.LeaseExpiries, 1)
	atomic.AddInt64(&s.intents.Abandoned, 1)
	sf.mu.Unlock()
	for _, w := range woken {
		w.ch <- false
	}
}

// handleRenewLease extends the lease deadline of every open or pending
// intent matching (stripe, owner). Stripes whose lease already expired (or
// that hold no matching intent) are simply not counted — the client
// compares Renewed against what it asked for and fences itself.
func (s *Server) handleRenewLease(m *wire.RenewLease) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	if m.LeaseMS == 0 {
		return nil, fmt.Errorf("server: renew with zero lease")
	}
	dur := time.Duration(m.LeaseMS) * time.Millisecond
	var renewed uint32
	for _, stripe := range m.Stripes {
		if _, ok := sf.geom.ParityUnitOn(s.idx, stripe); !ok {
			return nil, fmt.Errorf("server %d does not hold parity of stripe %d", s.idx, stripe)
		}
		sf.mu.Lock()
		rec := sf.intentOf(stripe, m.Owner)
		if rec != nil && !rec.abandoned && !rec.deadline.IsZero() {
			rec.deadline = time.Now().Add(dur)
			renewed++
		}
		sf.mu.Unlock()
	}
	atomic.AddInt64(&s.intents.LeaseRenewals, int64(renewed))
	return &wire.RenewLeaseResp{Renewed: renewed}, nil
}

// handleListIntents reports the file's write intents — the exact set of
// stripes whose parity may disagree with their data. Recovery replays the
// abandoned ones; the scrubber skips all of them.
func (s *Server) handleListIntents(m *wire.ListIntents) (wire.Msg, error) {
	sf, err := s.file(m.File)
	if err != nil {
		return nil, err
	}
	sf.mu.Lock()
	resp := &wire.ListIntentsResp{Intents: make([]wire.Intent, 0, len(sf.intents))}
	for stripe, recs := range sf.intents {
		for _, rec := range recs {
			resp.Intents = append(resp.Intents, wire.Intent{
				Stripe: stripe, Owner: rec.owner, Abandoned: rec.abandoned,
			})
		}
	}
	sf.mu.Unlock()
	return resp, nil
}

// handleResolveIntent retires an abandoned intent by installing parity
// recomputed from the stripe's data units. The check-write-retire runs
// atomically under sf.mu: a concurrent full-stripe write retires the
// intent under the same mutex before writing its own parity, so either
// this replay sees no intent and writes nothing, or the superseding
// parity write is ordered after the replayed bytes. An intent that is
// still open or pending belongs to a live update and is refused, and so is
// any stripe where another owner's intent is live (wire.ErrStripeBusy):
// that update's data may still be landing, so parity recomputed now could
// miss its bytes. This is the one place that rule is decided. A missing
// intent is already resolved.
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
	rec := sf.intentOf(m.Stripe, m.Owner)
	if rec == nil {
		sf.mu.Unlock()
		return &wire.OK{}, nil // already resolved or superseded
	}
	if !rec.abandoned {
		sf.mu.Unlock()
		return nil, fmt.Errorf("server: intent of stripe %d still open", m.Stripe)
	}
	if sf.live(m.Stripe) {
		sf.mu.Unlock()
		return nil, fmt.Errorf("server: stripe %d: %w", m.Stripe, wire.ErrStripeBusy)
	}
	if err := s.writePiece(par, sf.geom.ParityLocalOffsetOn(s.idx, m.Stripe), m.Data); err != nil {
		sf.mu.Unlock()
		return nil, err
	}
	sf.dropIntent(m.Stripe, rec)
	s.journalAppend(intentOpRetire, sf.ref.ID, wire.IntentID{Stripe: m.Stripe, Owner: m.Owner})
	sf.mu.Unlock()
	atomic.AddInt64(&s.intents.Resolved, 1)
	return &wire.OK{}, nil
}

// resolveAbandonedByWrite retires every abandoned intent among stripes: a
// fresh full-stripe parity write is about to install parity that is
// correct by construction, superseding whatever tear the intents recorded.
// Called before the parity bytes are written (see handleResolveIntent for
// the ordering argument).
func (s *Server) resolveAbandonedByWrite(sf *serverFile, stripes []int64) {
	for _, stripe := range stripes {
		sf.mu.Lock()
		var resolved []wire.IntentID
		for _, rec := range append([]*intentRec(nil), sf.intents[stripe]...) {
			if rec.abandoned {
				sf.dropIntent(stripe, rec)
				resolved = append(resolved, wire.IntentID{Stripe: stripe, Owner: rec.owner})
			}
		}
		if len(resolved) > 0 {
			s.journalAppend(intentOpRetire, sf.ref.ID, resolved...)
		}
		sf.mu.Unlock()
		atomic.AddInt64(&s.intents.Resolved, int64(len(resolved)))
	}
}

// dropFileIntents retires every intent of a removed file.
func (s *Server) dropFileIntents(sf *serverFile) {
	sf.mu.Lock()
	var ids []wire.IntentID
	for stripe, recs := range sf.intents {
		for _, rec := range recs {
			if rec.timer != nil {
				rec.timer.Stop()
			}
			ids = append(ids, wire.IntentID{Stripe: stripe, Owner: rec.owner})
		}
		delete(sf.intents, stripe)
	}
	if len(ids) > 0 {
		s.journalAppend(intentOpRetire, sf.ref.ID, ids...)
	}
	sf.mu.Unlock()
}
