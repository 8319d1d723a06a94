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
	"time"

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

// intentRecordLen is the encoded body length of one journal record:
// op (1) + file ID (8) + stripe (8) + owner (8).
const intentRecordLen = 1 + 8 + 8 + 8

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

// IntentStats is a snapshot of the server's intent/lease counters.
type IntentStats struct {
	Opened        int64 // intents opened by locked parity reads
	Retired       int64 // intents committed by their unlocking parity write
	Abandoned     int64 // lease expiries + UnlockParity + crash-restart loads
	Resolved      int64 // abandoned intents retired by replay or a full-stripe write
	LeaseRenewals int64 // stripes renewed by RenewLease
	LeaseExpiries int64 // leases the server revoked
}

// IntentStats returns the current intent/lease counters.
func (s *Server) IntentStats() IntentStats {
	return IntentStats{
		Opened:        s.intOpened.Load(),
		Retired:       s.intRetired.Load(),
		Abandoned:     s.intAbandoned.Load(),
		Resolved:      s.intResolved.Load(),
		LeaseRenewals: s.leaseRenewals.Load(),
		LeaseExpiries: s.leaseExpiries.Load(),
	}
}

// journalAppend durably appends one record. delta is the change to the
// count of live intents (+1 open, -1 retire, 0 abandon); when the count
// drops to zero the journal is truncated — the whole history is balanced
// open/retire pairs, so an empty live set compacts to an empty log.
// Lock order: callers may hold sf.mu; jmu nests inside it.
func (s *Server) journalAppend(op uint8, fileID uint64, stripe int64, owner uint64, delta int) {
	e := wire.Encoder{Buf: make([]byte, 0, 4+intentRecordLen)}
	e.U32(intentRecordLen)
	e.U8(op)
	e.U64(fileID)
	e.I64(stripe)
	e.U64(owner)

	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		s.journal = s.disk.Open(intentJournalName)
		s.jOff = s.journal.Size()
	}
	s.jLive += delta
	if s.jLive <= 0 {
		s.jLive = 0
		s.journal.Truncate(0)
		s.jOff = 0
		if op == intentOpRetire {
			// Nothing live: the retire needs no record either.
			s.journal.Sync()
			return
		}
	}
	s.journal.WriteAt(e.Buf, s.jOff) //nolint:errcheck // local store
	s.jOff += int64(len(e.Buf))
	s.journal.Sync()
}

// loadIntents replays the journal at startup. Every surviving intent —
// open or already abandoned — is marked abandoned: the server just
// restarted, so no pre-crash update can still be in flight and each such
// stripe is possibly torn. Survivors are parked in s.pendingIntents and
// adopted when the file record is first materialized. The journal is then
// compacted to one abandon record per survivor, so repeated crashes do
// not grow it. A torn final record (crash mid-append) is ignored.
func (s *Server) loadIntents() {
	f := s.disk.Open(intentJournalName)
	size := f.Size()
	if size == 0 {
		s.journal, s.jOff = f, 0
		return
	}
	buf := make([]byte, size)
	f.ReadAt(buf, 0) //nolint:errcheck // zero-fill semantics
	live := make(map[uint64]map[int64]uint64)
	d := wire.Decoder{Buf: buf}
	for {
		n := d.U32()
		if d.Err() != nil || n != intentRecordLen {
			break // end of log or torn tail
		}
		op := d.U8()
		fileID := d.U64()
		stripe := d.I64()
		owner := d.U64()
		if d.Err() != nil {
			break
		}
		switch op {
		case intentOpOpen, intentOpAbandon:
			if live[fileID] == nil {
				live[fileID] = make(map[int64]uint64)
			}
			live[fileID][stripe] = owner
		case intentOpRetire:
			delete(live[fileID], stripe)
		}
	}

	// Compact: the surviving set, each as a single abandon record.
	e := wire.Encoder{Buf: make([]byte, 0, 64)}
	count := 0
	for fileID, stripes := range live {
		for stripe, owner := range stripes {
			e.U32(intentRecordLen)
			e.U8(intentOpAbandon)
			e.U64(fileID)
			e.I64(stripe)
			e.U64(owner)
			count++
			s.intAbandoned.Add(1)
		}
		if len(stripes) == 0 {
			delete(live, fileID)
		}
	}
	f.Truncate(0)
	if count > 0 {
		f.WriteAt(e.Buf, 0) //nolint:errcheck
	}
	f.Sync()
	s.journal = f
	s.jOff = int64(len(e.Buf))
	s.jLive = count
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
		s.intOpened.Add(1)
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
	s.intRetired.Add(1)
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
	s.leaseExpiries.Add(1)
	s.intAbandoned.Add(1)
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
	s.leaseRenewals.Add(int64(renewed))
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
	s.intResolved.Add(1)
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
			s.intResolved.Add(1)
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
