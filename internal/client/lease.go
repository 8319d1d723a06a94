package client

import (
	"sync/atomic"
	"time"

	"csar/internal/wire"
)

// This file keeps the client's parity-lock acquisitions alive and retires
// their intents. The client holds one session per server, the same ID on
// each to begin with, and names every locked ReadParity by (session, seq),
// seq counting up across the whole client. With Policy.LockLease > 0 the
// session holds a lease on the server: if no heartbeat arrives before it
// runs out, the server expires the session, revoking its locks and
// abandoning its intents (see internal/server/intent.go).
//
// The unlocking parity write leaves the stripe's intent pending on the
// server: the data writes beside it may not have landed. The client keeps,
// per server, the seqs issued there whose update is not complete — both
// writes acknowledged, or the release acknowledged — and its watermark W is
// one below the lowest of them, or the highest seq issued there when none
// is in flight. W rides the next locked ReadParity to the server, and the
// heartbeat: every LockLease/3 one goroutine sends each server where the
// session is live (an acquisition in flight, or an acknowledged W behind
// the current one) one RenewLease carrying the lease and W. FlushRetires
// sends W wherever the acknowledged one lags and waits (File.Sync, Close,
// and the intent readers: scrub and intent replay). A lost W is superseded
// by the next one. An UnlockParity no server answered is sent again on each
// tick and on each flush until one does: until then its seq holds W back.
// The client learns that a server expired its session only from a request
// the server fenced off (ErrLeaseExpired), and then starts a new session.

// session is the client's session on one server. Guarded by lmu.
type session struct {
	id       uint64              // a new one once the server expired this one
	inflight map[uint64]struct{} // seqs issued here whose update is not complete
	issued   uint64              // the highest seq issued here
	acked    uint64              // the highest watermark the server acknowledged
}

// watermark is the session's W: one below the lowest seq in flight, or the
// highest seq issued when none is.
func (s *session) watermark() uint64 {
	w := s.issued
	for seq := range s.inflight {
		w = min(w, seq-1)
	}
	return w
}

// live reports whether the server must hear from the session: an
// acquisition is in flight there, or its acknowledged watermark lags.
func (s *session) live() bool { return len(s.inflight) > 0 || s.acked < s.watermark() }

// release is an UnlockParity no server has answered yet.
type release struct {
	srv  int
	m    *wire.UnlockParity
	sent chan struct{} // closed once the send in flight has an outcome; nil when none is in flight
}

// leaseMS converts the policy's lock lease to the wire's milliseconds field
// (0 = no lease requested).
func leaseMS(p Policy) uint32 {
	if p.LockLease <= 0 {
		return 0
	}
	return uint32(max(p.LockLease/time.Millisecond, 1))
}

// beatEvery is the heartbeat period: a third of the lease, and at least a
// millisecond, as the lease is.
func beatEvery(p Policy) time.Duration { return max(p.LockLease/3, time.Millisecond) }

// begin issues the next seq for an acquisition on server srv, and returns
// the session to name it under and the watermark to send beside it. With a
// lease it starts the heartbeat if it is not running.
func (c *Client) begin(srv int) (id, seq, w uint64) {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	c.seq++
	s := &c.sessions[srv]
	s.inflight[c.seq] = struct{}{}
	s.issued = c.seq
	if c.hbDone == nil && c.hbStop != nil && leaseMS(c.getPolicy()) > 0 {
		c.hbDone = make(chan struct{})
		go c.heartbeat(c.hbStop, c.hbDone)
	}
	return s.id, c.seq, s.watermark()
}

// end marks acquisition seq on server srv complete: both of its writes, or
// its release, were acknowledged, or it never took effect.
func (c *Client) end(srv int, seq uint64) {
	c.lmu.Lock()
	delete(c.sessions[srv].inflight, seq)
	c.lmu.Unlock()
}

// heard records that server srv applied watermark w of session id: nothing
// at or below it is left to retire there.
func (c *Client) heard(srv int, id, w uint64) {
	c.lmu.Lock()
	if s := &c.sessions[srv]; s.id == id {
		s.acked = max(s.acked, w)
	}
	c.lmu.Unlock()
}

// expired records that server srv ended session id: the expiry is counted
// once, and the client starts a new session there, with nothing to retire.
func (c *Client) expired(srv int, id uint64) {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	if s := &c.sessions[srv]; s.id == id {
		s.id, s.acked = nextLockToken(), s.watermark()
		atomic.AddInt64(&c.metrics.LeaseExpiries, 1)
	}
}

// completed reports whether intent in on server srv is one of this
// client's updates that completed: its seq is not in flight, and it was not
// given up. The server retires it at the next watermark.
func (c *Client) completed(srv int, in wire.Intent) bool {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	s := &c.sessions[srv]
	_, busy := s.inflight[in.Seq]
	return in.Session == s.id && !busy && !in.Abandoned
}

// releaseParityLock sends an UnlockParity for a locked parity-read
// acquisition whose outcome is unknown (the read failed or timed out
// client-side, but the server may have granted the lock), or whose
// unlocking write was lost. The acquisition guarantees it can only release
// our own ghost — never a lock since granted to another client. dirty tells
// the server whether data writes may have landed under it: false means the
// stripe is untouched (the server simply retires the intent and hands the
// lock on), true means parity and data may disagree, so the server
// fail-stops the stripe until intent replay reconciles it. The seq stays in
// flight until a server answers.
func (c *Client) releaseParityLock(srv int, ref wire.FileRef, stripe int64, id, seq uint64, dirty bool) {
	atomic.AddInt64(&c.metrics.LockReleases, 1)
	r := &release{srv: srv, sent: make(chan struct{}), m: &wire.UnlockParity{
		File: ref, Stripes: []int64{stripe}, Session: id, Seq: seq, Dirty: dirty,
	}}
	c.lmu.Lock()
	c.releases[seq] = r
	c.lmu.Unlock()
	go c.sendRelease(r)
}

// sendRelease sends one unanswered release. A server's answer — an error
// included — ends the acquisition; a transport failure leaves it for the
// next tick or flush.
func (c *Client) sendRelease(r *release) {
	_, err := c.srv[r.srv].CallTraced(r.m, 0, c.getPolicy().CallTimeout)
	c.lmu.Lock()
	defer c.lmu.Unlock()
	close(r.sent)
	r.sent = nil
	if err == nil || !isUnavailable(err) {
		delete(c.releases, r.m.Seq)
		delete(c.sessions[r.srv].inflight, r.m.Seq)
	}
}

// FlushRetires waits for every release on its way and sends every one
// still unanswered again, then the current watermark to each server whose
// acknowledged one lags, and waits for the replies, so an intent reader that
// runs next sees none of this client's completed updates as live.
func (c *Client) FlushRetires() { c.beat(false) }

// beat sends every unanswered release again, then a RenewLease with the
// session's lease and watermark to each server where the acknowledged
// watermark lags — and, on a heartbeat (renew), where an acquisition is in
// flight — and waits for the replies. A flush first waits out each release
// already on its way; a heartbeat leaves it to its own outcome.
func (c *Client) beat(renew bool) {
	for {
		c.lmu.Lock()
		var rels []*release
		var busy []chan struct{}
		for _, r := range c.releases {
			switch {
			case r.sent == nil:
				r.sent = make(chan struct{})
				rels = append(rels, r)
			case !renew:
				busy = append(busy, r.sent)
			}
		}
		c.lmu.Unlock()
		c.EachServer(len(rels), nil, func(i int) error { c.sendRelease(rels[i]); return nil }) //nolint:errcheck // legs report nothing
		if len(busy) == 0 {
			break
		}
		for _, ch := range busy {
			<-ch
		}
	}

	ms := leaseMS(c.getPolicy())
	c.lmu.Lock()
	beats := make([]*wire.RenewLease, len(c.sessions))
	for i := range c.sessions {
		if s := &c.sessions[i]; s.acked < s.watermark() || renew && len(s.inflight) > 0 {
			beats[i] = &wire.RenewLease{Session: s.id, LeaseMS: ms, Watermark: s.watermark()}
		}
	}
	c.lmu.Unlock()
	c.EachServer(len(beats), func(i int) bool { return beats[i] != nil }, func(i int) error { //nolint:errcheck // legs report nothing
		c.renew(i, beats[i])
		return nil
	})
}

// renew sends one session heartbeat. Its answer, live or not, applies its
// watermark: a server that answers not live holds nothing of the session —
// it expired it (abandoning its intents), lost it in a restart, or has not
// seen its first locked read yet — so nothing at or below the watermark is
// left to retire there. An expiry is learned from the next request the
// server fences off; after a restart the session goes on under its old ID,
// as seqs never repeat. Transport failures are left for the next tick — the
// lease is sized to survive several missed heartbeats.
func (c *Client) renew(srv int, m *wire.RenewLease) {
	resp, err := c.callSrv(srv, m)
	rr, ok := resp.(*wire.RenewLeaseResp)
	if err != nil || !ok {
		return
	}
	if rr.Live && m.LeaseMS > 0 {
		atomic.AddInt64(&c.metrics.LeaseRenewals, 1)
	}
	c.heard(srv, m.Session, m.Watermark)
}

// heartbeat runs beat every LockLease/3, following policy changes, and
// exits once no session is live and no release is unanswered, or the lease
// is switched off, or stop is closed, closing done; begin starts it again.
func (c *Client) heartbeat(stop, done chan struct{}) {
	defer close(done)
	every := beatEvery(c.getPolicy())
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		p := c.getPolicy()
		c.lmu.Lock()
		live := len(c.releases) > 0
		for i := range c.sessions {
			live = live || c.sessions[i].live()
		}
		if !live || leaseMS(p) == 0 {
			c.hbDone = nil
			c.lmu.Unlock()
			return
		}
		c.lmu.Unlock()
		c.beat(true)
		if beatEvery(p) != every {
			every = beatEvery(p)
			t.Reset(every)
		}
	}
}
