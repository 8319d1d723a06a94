// Stripe intent journal and leased parity locks — the server half of the
// RAID5 write-hole closure.
//
// A locked ReadParity opens one durable *write intent* per stripe before
// its response leaves the server, and the closing WriteParity retires it;
// after any crash the journal's surviving intents are exactly the stripes
// whose parity may not match their data. A lock acquisition may carry a
// lease deadline, renewed by the client's RenewLease heartbeat; when it
// passes, the server revokes the lock, wakes the FIFO queue canceled and
// marks the intent *abandoned* — a dead client can no longer wedge a
// stripe forever. Abandoned stripes fail-stop: new lock acquisitions are
// refused (wire.ErrStripeTorn) until recovery replays the stripe with
// ResolveIntent, or a fresh full-stripe parity write supersedes it.
package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"csar/internal/obs"
	"csar/internal/wire"
)

// intentJournalName is the server-wide journal file on the local backend.
const intentJournalName = "intents.journal"

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

// codec reads or writes one record.
func (r *intentEntry) codec(c *wire.Codec) {
	c.U8(&r.op)
	c.U64(&r.fileID)
	c.I64(&r.stripe)
	c.U64(&r.owner)
}

// payload encodes the record.
func (r intentEntry) payload() []byte {
	e := wire.Encoding(make([]byte, 0, 25))
	r.codec(&e)
	return e.Buf
}

// intentRec is one stripe's write intent. A nil deadline timer means the
// acquisition asked for no lease (a client running with Policy.LockLease
// zero: correctness tests and the performance model); it then lives until
// its unlocking write, an UnlockParity cancellation, or a server restart.
type intentRec struct {
	owner     uint64
	abandoned bool
	deadline  time.Time   // zero: no lease
	timer     *time.Timer // armed iff deadline is set
}

// IntentStats is the server's intent/lease counter set, published in its
// registry under the tags.
type IntentStats struct {
	Opened        int64 `obs:"intents_opened"`    // intents opened by locked parity reads
	Retired       int64 `obs:"intents_retired"`   // intents committed by their unlocking parity write
	Abandoned     int64 `obs:"intents_abandoned"` // lease expiries + UnlockParity + crash-restart loads
	Resolved      int64 `obs:"intents_resolved"`  // abandoned intents retired by replay or a full-stripe write
	LeaseRenewals int64 `obs:"lease_renewals"`    // stripes renewed by RenewLease
	LeaseExpiries int64 `obs:"lease_expiries"`    // leases the server revoked
}

// IntentStats returns the current intent/lease counters.
func (s *Server) IntentStats() IntentStats { return obs.LoadCounters(s.intents) }

// journalAppend durably appends one record. delta is the change to the
// count of live intents (+1 open, -1 retire, 0 abandon); when a retire drops
// the count to zero the journal is truncated instead — the whole history is
// balanced open/retire pairs, so an empty live set compacts to an empty log.
// Lock order: callers may hold sf.mu; jmu nests inside it.
func (s *Server) journalAppend(op uint8, fileID uint64, stripe int64, owner uint64, delta int) {
	rec := intentEntry{op, fileID, stripe, owner}.payload()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.jLive += delta; s.jLive <= 0 && op == intentOpRetire {
		s.jLive = 0
		s.journal.Rewrite() //nolint:errcheck // local store
		return
	}
	s.journal.Append(rec) //nolint:errcheck // local store
}

// loadIntents replays the journal at startup. Every surviving intent —
// open or already abandoned — is marked abandoned: the server just
// restarted, so no pre-crash update can still be in flight and each such
// stripe is possibly torn. Survivors are parked in s.pendingIntents and
// adopted when the file record is first materialized. The journal is then
// compacted to one abandon record per survivor, so repeated crashes do
// not grow it.
func (s *Server) loadIntents() {
	live := make(map[uint64]map[int64]uint64)
	s.journal = s.openJournal(intentJournalName, func(p []byte) error {
		var r intentEntry
		d := wire.Decoding(p)
		if r.codec(&d); d.Err() != nil {
			return d.Err()
		}
		switch r.op {
		case intentOpOpen, intentOpAbandon:
			if live[r.fileID] == nil {
				live[r.fileID] = make(map[int64]uint64)
			}
			live[r.fileID][r.stripe] = r.owner
		case intentOpRetire:
			delete(live[r.fileID], r.stripe)
		}
		return nil
	})
	if s.journal.Size() == 0 {
		return
	}

	// Compact: the surviving set, each as a single abandon record.
	var recs [][]byte
	for fileID, stripes := range live {
		for stripe, owner := range stripes {
			recs = append(recs, intentEntry{intentOpAbandon, fileID, stripe, owner}.payload())
			atomic.AddInt64(&s.intents.Abandoned, 1)
		}
		if len(stripes) == 0 {
			delete(live, fileID)
		}
	}
	s.journal.Rewrite(recs...) //nolint:errcheck // local store
	s.jLive = len(recs)
	s.pendingIntents = live
}

// adoptIntents moves journal-loaded intents for a file onto its fresh
// serverFile record. Caller holds s.mu.
func (s *Server) adoptIntents(sf *serverFile) {
	stripes := s.pendingIntents[sf.ref.ID]
	if stripes == nil {
		return
	}
	for stripe, owner := range stripes {
		sf.intents[stripe] = &intentRec{owner: owner, abandoned: true}
	}
	delete(s.pendingIntents, sf.ref.ID)
}

// openIntents records one durable write intent per just-locked stripe and
// arms its lease, immediately before the locked ReadParity response
// returns. The journal append happens before the client can act on the
// grant, so a crash at any later point leaves the stripe covered.
func (s *Server) openIntents(sf *serverFile, stripes []int64, owner uint64, leaseMS uint32) {
	for _, stripe := range stripes {
		sf.mu.Lock()
		rec := &intentRec{owner: owner}
		sf.intents[stripe] = rec
		if leaseMS > 0 {
			dur := time.Duration(leaseMS) * time.Millisecond
			rec.deadline = time.Now().Add(dur)
			st := stripe
			rec.timer = time.AfterFunc(dur, func() { s.leaseCheck(sf, st, owner) })
		}
		s.journalAppend(intentOpOpen, sf.ref.ID, stripe, owner, +1)
		sf.mu.Unlock()
		atomic.AddInt64(&s.intents.Opened, 1)
	}
}

// retireIntent commits the intent of one stripe: its unlocking parity
// write landed, the stripe is consistent again. A mismatched or missing
// intent is a no-op (the acquisition was canceled or already expired —
// the caller's refusal paths handle those).
func (sf *serverFile) retireIntent(s *Server, stripe int64, owner uint64) {
	sf.mu.Lock()
	rec := sf.intents[stripe]
	if rec == nil || rec.owner != owner || rec.abandoned {
		sf.mu.Unlock()
		return
	}
	if rec.timer != nil {
		rec.timer.Stop()
	}
	delete(sf.intents, stripe)
	s.journalAppend(intentOpRetire, sf.ref.ID, stripe, owner, -1)
	sf.mu.Unlock()
	atomic.AddInt64(&s.intents.Retired, 1)
}

// abandonIntent marks one stripe's intent abandoned (lease revoked or the
// client compensated with UnlockParity after an unknown outcome). The
// stripe fail-stops until replay. Caller holds sf.mu; reports whether the
// intent transitioned.
func (sf *serverFile) abandonIntentLocked(s *Server, stripe int64, owner uint64) bool {
	rec := sf.intents[stripe]
	if rec == nil || rec.owner != owner || rec.abandoned {
		return false
	}
	rec.abandoned = true
	if rec.timer != nil {
		rec.timer.Stop()
	}
	s.journalAppend(intentOpAbandon, sf.ref.ID, stripe, owner, 0)
	return true
}

// failStopLocked abandons owner's open intent on stripe and revokes the
// parity lock, waking every queued waiter canceled — the stripe's parity
// may be stale, so nobody may build a read-modify-write on it until
// replay. Caller holds sf.mu; the returned waiters must be woken (false)
// after it is released. Reports whether the intent transitioned.
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
// timer; an expired one fail-stops the stripe: the lock is revoked, the
// queue canceled, the intent abandoned.
func (s *Server) leaseCheck(sf *serverFile, stripe int64, owner uint64) {
	sf.mu.Lock()
	rec := sf.intents[stripe]
	if rec == nil || rec.owner != owner || rec.abandoned || rec.deadline.IsZero() {
		sf.mu.Unlock()
		return
	}
	if rem := time.Until(rec.deadline); rem > 0 {
		rec.timer.Reset(rem)
		sf.mu.Unlock()
		return
	}
	_, woken := sf.failStopLocked(s, stripe, owner)
	sf.mu.Unlock()
	for _, w := range woken {
		w.ch <- false
	}
	atomic.AddInt64(&s.intents.LeaseExpiries, 1)
	atomic.AddInt64(&s.intents.Abandoned, 1)
}

// handleRenewLease extends the lease deadline of every still-live
// acquisition matching (stripe, owner). Stripes whose lease already
// expired (or that hold no matching intent) are simply not counted — the
// client compares Renewed against what it asked for and fences itself.
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
		rec := sf.intents[stripe]
		if rec != nil && !rec.abandoned && rec.owner == m.Owner && !rec.deadline.IsZero() {
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
	for stripe, rec := range sf.intents {
		resp.Intents = append(resp.Intents, wire.Intent{
			Stripe: stripe, Owner: rec.owner, Abandoned: rec.abandoned,
		})
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
// still open belongs to a live update and is refused; a missing one is
// already resolved.
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
	par := sf.store(s.disk, StoreParity) // before sf.mu: store() locks it

	sf.mu.Lock()
	rec := sf.intents[m.Stripe]
	if rec == nil {
		sf.mu.Unlock()
		return &wire.OK{}, nil // already resolved or superseded
	}
	if !rec.abandoned {
		sf.mu.Unlock()
		return nil, fmt.Errorf("server: intent of stripe %d still open", m.Stripe)
	}
	if rec.owner != m.Owner {
		sf.mu.Unlock()
		return nil, fmt.Errorf("server: intent of stripe %d abandoned under a different token", m.Stripe)
	}
	s.writePiece(par, sf.geom.ParityLocalOffsetOn(s.idx, m.Stripe), m.Data)
	if rec.timer != nil {
		rec.timer.Stop()
	}
	delete(sf.intents, m.Stripe)
	s.journalAppend(intentOpRetire, sf.ref.ID, m.Stripe, rec.owner, -1)
	sf.mu.Unlock()
	atomic.AddInt64(&s.intents.Resolved, 1)
	return &wire.OK{}, nil
}

// resolveAbandonedByWrite retires any abandoned intents among stripes: a
// fresh full-stripe parity write is about to install parity that is
// correct by construction, superseding whatever tear the intent recorded.
// Called before the parity bytes are written (see handleResolveIntent for
// the ordering argument).
func (s *Server) resolveAbandonedByWrite(sf *serverFile, stripes []int64) {
	for _, stripe := range stripes {
		sf.mu.Lock()
		rec := sf.intents[stripe]
		if rec != nil && rec.abandoned {
			if rec.timer != nil {
				rec.timer.Stop()
			}
			delete(sf.intents, stripe)
			s.journalAppend(intentOpRetire, sf.ref.ID, stripe, rec.owner, -1)
			sf.mu.Unlock()
			atomic.AddInt64(&s.intents.Resolved, 1)
			continue
		}
		sf.mu.Unlock()
	}
}

// dropFileIntents retires every intent of a removed file.
func (s *Server) dropFileIntents(sf *serverFile) {
	sf.mu.Lock()
	for stripe, rec := range sf.intents {
		if rec.timer != nil {
			rec.timer.Stop()
		}
		delete(sf.intents, stripe)
		s.journalAppend(intentOpRetire, sf.ref.ID, stripe, rec.owner, -1)
	}
	sf.mu.Unlock()
}
