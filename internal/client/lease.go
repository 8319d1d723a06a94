package client

import (
	"sync/atomic"
	"time"

	"csar/internal/wire"
)

// This file keeps leased parity-lock acquisitions alive, and retires their
// intents once the read-modify-write is done. A locked ReadParity issued
// with Policy.LockLease > 0 opens a lease on the parity server: if no
// heartbeat arrives before the deadline, the server revokes the lock and
// fail-stops the stripe (see internal/server/intent.go). While the RMW is in
// flight the client therefore registers the acquisition here, and a single
// background goroutine renews every registered lease at the heartbeat
// period. A healthy RMW completes in far less than one lease, so the
// heartbeat only matters when the write phase stalls — exactly the case the
// lease exists to distinguish from a crashed client.
//
// The unlocking parity write leaves the stripe's intent pending on the
// server: the data writes beside it may not have landed. Once both are
// acknowledged the acquisition is queued on a per-server, per-file retire
// list, and the lists go out as RetireIntents off any op's path: a list
// that has reached retireBatch rides beside the next read-modify-write's
// read round, so it adds no round of its own; with a lease heartbeat
// running, every list goes once the client has completed no
// read-modify-write for retireIdle, and on the tick; and FlushRetires sends
// them all and waits (File.Sync,
// Close, and the intent readers: scrub and intent replay). The acquisition
// stays in the renewal set until a RetireIntents carrying it is
// acknowledged, so the heartbeat keeps its pending intent's lease alive; a
// retire that fails goes back on its list for the next send.

// leaseEntry identifies one live acquisition: which server holds the lock,
// for which file and stripe, and under which owner token.
type leaseEntry struct {
	srv    int
	ref    wire.FileRef
	stripe int64
	owner  uint64
	until  time.Time // the lease's deadline as of its grant or last renewal
	// retiring: a RetireIntents carrying the entry is in flight; the
	// heartbeat leaves it alone until it is answered.
	retiring bool
}

// leaseMS converts the policy's lock lease to the wire's milliseconds field
// (0 = no lease requested).
func leaseMS(p Policy) uint32 {
	if p.LockLease <= 0 {
		return 0
	}
	ms := p.LockLease / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	return uint32(ms)
}

// renewEvery derives the heartbeat period: explicit when set, LockLease/3
// when zero, disabled when negative (or when no lease is in use).
func renewEvery(p Policy) time.Duration {
	if p.LockLease <= 0 || p.LeaseRenewEvery < 0 {
		return 0
	}
	if p.LeaseRenewEvery > 0 {
		return p.LeaseRenewEvery
	}
	return p.LockLease / 3
}

// retireBatch is how many completed read-modify-writes' intents on one
// server and file wait before their retire rides beside the next
// read-modify-write.
const retireBatch = 16

// retireIdle is how long a client with a lease heartbeat completes no
// read-modify-write before it sends every retire list: its pending intents
// clear within about that of its last update instead of at the next tick.
// Under load a list fills first, so this adds no messages there.
const retireIdle = 5 * time.Millisecond

// retireKey names one retire list: a server and a file on it.
type retireKey struct {
	srv int
	ref wire.FileRef
}

// trackLease registers a granted leased acquisition for heartbeat renewal
// and starts the renewal goroutine if it is not already running.
func (c *Client) trackLease(srv int, ref wire.FileRef, stripe int64, owner uint64) {
	p := c.getPolicy()
	every := renewEvery(p)
	if every <= 0 {
		return
	}
	c.lmu.Lock()
	c.leases[owner] = leaseEntry{srv: srv, ref: ref, stripe: stripe, owner: owner, until: time.Now().Add(p.LockLease)}
	start := !c.hbRunning
	if start {
		c.hbRunning = true
	}
	c.lmu.Unlock()
	if start {
		go c.heartbeat(every)
	}
}

// untrackLease drops an acquisition from the renewal set (the lock was
// released, or the server told us the lease already expired).
func (c *Client) untrackLease(owner uint64) {
	c.lmu.Lock()
	delete(c.leases, owner)
	c.lmu.Unlock()
}

// queueRetire puts a completed acquisition on its server's retire list: its
// parity and data writes were both acknowledged. It stays in the renewal
// set until the retire is. With a heartbeat running it arms the idle timer.
// When the policy leases locks but renews none, no tick would retire the
// intent before its lease ran out, so the list goes at once. Without a lease
// nothing expires: the lists go only when full and on flushes.
func (c *Client) queueRetire(srv int, ref wire.FileRef, stripe int64, owner uint64) {
	p := c.getPolicy()
	k := retireKey{srv, ref}
	c.lmu.Lock()
	c.retires[k] = append(c.retires[k], wire.IntentID{Stripe: stripe, Owner: owner})
	c.unretired[owner] = struct{}{}
	var now map[retireKey][]wire.IntentID
	switch {
	case leaseMS(p) > 0 && renewEvery(p) == 0:
		now = c.takeRetiresLocked(1)
	case renewEvery(p) > 0:
		c.retireSeq++
		if !c.idleArmed {
			c.idleArmed, c.idleSeen = true, c.retireSeq
			if c.idle == nil {
				c.idle = time.AfterFunc(retireIdle, c.idleRetire)
			} else {
				c.idle.Reset(retireIdle)
			}
		}
	}
	c.lmu.Unlock()
	c.sendRetires(now)
}

// idleRetire runs retireIdle after the idle timer was armed: if no
// read-modify-write completed since, it sends every retire list, and
// otherwise it waits another retireIdle.
func (c *Client) idleRetire() {
	c.lmu.Lock()
	if c.retireSeq != c.idleSeen {
		c.idleSeen = c.retireSeq
		c.idle.Reset(retireIdle)
		c.lmu.Unlock()
		return
	}
	c.idleArmed = false
	all := c.takeRetiresLocked(1)
	c.lmu.Unlock()
	c.sendRetires(all)
}

// completedUpdate reports whether owner is the token of one of this
// client's read-modify-writes that completed — both writes acknowledged —
// and whose intent is not retired yet.
func (c *Client) completedUpdate(owner uint64) bool {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	_, ok := c.unretired[owner]
	return ok
}

// sendDueRetires sends every retire list that has reached retireBatch.
func (c *Client) sendDueRetires() {
	c.lmu.Lock()
	due := c.takeRetiresLocked(retireBatch)
	c.lmu.Unlock()
	c.sendRetires(due)
}

// FlushRetires retires every intent this client has queued and waits until
// each RetireIntents in flight has been answered, so an intent reader that
// runs next sees none of this client's completed updates as live.
func (c *Client) FlushRetires() {
	c.lmu.Lock()
	all := c.takeRetiresLocked(1)
	c.lmu.Unlock()
	c.sendRetires(all)
	c.lmu.Lock()
	for c.retiresSent > 0 {
		c.retiresIdle.Wait()
	}
	c.lmu.Unlock()
}

// takeRetiresLocked removes and returns the retire lists holding at least
// least intents, counting each as in flight and marking its entries
// retiring. Caller holds lmu.
func (c *Client) takeRetiresLocked(least int) map[retireKey][]wire.IntentID {
	var out map[retireKey][]wire.IntentID
	for k, ids := range c.retires {
		if len(ids) < least {
			continue
		}
		if out == nil {
			out = make(map[retireKey][]wire.IntentID)
		}
		out[k] = ids
		delete(c.retires, k)
		for _, id := range ids {
			if e, ok := c.leases[id.Owner]; ok {
				e.retiring = true
				c.leases[id.Owner] = e
			}
		}
	}
	c.retiresSent += len(out)
	return out
}

// sendRetires sends each list as one untraced RetireIntents, each from its
// own goroutine so no caller waits on it. An acknowledged retire drops its
// entries from the renewal set. A failed one puts its intents back on their
// list for the next send, and the heartbeat goes on renewing them, unless
// their lease has run out (renewal dropped the entry): the server has
// abandoned the intent, and replay recomputes parity that already matches.
// Without a heartbeat nothing tracks the lease, so the retire is kept.
func (c *Client) sendRetires(lists map[retireKey][]wire.IntentID) {
	for k, ids := range lists {
		go func() {
			_, err := c.callSrv(k.srv, &wire.RetireIntents{File: k.ref, Intents: ids})
			heartbeat := renewEvery(c.getPolicy()) > 0
			c.lmu.Lock()
			for _, id := range ids {
				e, tracked := c.leases[id.Owner]
				switch {
				case err == nil:
					delete(c.leases, id.Owner)
					delete(c.unretired, id.Owner)
				case tracked:
					e.retiring = false
					c.leases[id.Owner] = e
					fallthrough
				case !heartbeat:
					c.retires[k] = append(c.retires[k], id)
				default:
					delete(c.unretired, id.Owner)
				}
			}
			if c.retiresSent--; c.retiresSent == 0 {
				c.retiresIdle.Broadcast()
			}
			c.lmu.Unlock()
		}()
	}
}

// heartbeat renews every registered lease and then sends every retire list,
// once per period, and exits when both drain; trackLease restarts it on the
// next leased acquisition. Entries whose retire is in flight are left to
// its answer, and entries whose lease has run out unrenewed are dropped:
// the server has expired them.
func (c *Client) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		c.lmu.Lock()
		if len(c.leases) == 0 && len(c.retires) == 0 {
			c.hbRunning = false
			c.lmu.Unlock()
			return
		}
		now := time.Now()
		entries := make([]leaseEntry, 0, len(c.leases))
		for owner, e := range c.leases {
			switch {
			case e.retiring:
			case now.After(e.until):
				delete(c.leases, owner)
			default:
				entries = append(entries, e)
			}
		}
		c.lmu.Unlock()
		for _, e := range entries {
			c.renewLease(e)
		}
		c.lmu.Lock()
		retires := c.takeRetiresLocked(1)
		c.lmu.Unlock()
		c.sendRetires(retires)
	}
}

// renewLease sends one heartbeat for one acquisition. A response renewing
// fewer stripes than asked means the server already expired the lease: the
// entry is dropped (the in-flight RMW will learn the same from its fenced
// parity write) and the expiry is counted — unless a retire of the entry
// went out meanwhile, which also leaves nothing to renew. Transport failures
// are left for the next tick — the lease is sized to survive several missed
// heartbeats.
func (c *Client) renewLease(e leaseEntry) {
	p := c.getPolicy()
	sent := time.Now()
	resp, err := c.callSrv(e.srv, &wire.RenewLease{
		File: e.ref, Stripes: []int64{e.stripe}, Owner: e.owner, LeaseMS: leaseMS(p),
	})
	if err != nil {
		return
	}
	rr, ok := resp.(*wire.RenewLeaseResp)
	if !ok {
		return
	}
	c.lmu.Lock()
	defer c.lmu.Unlock()
	cur, tracked := c.leases[e.owner]
	if rr.Renewed < 1 {
		if tracked && !cur.retiring {
			atomic.AddInt64(&c.metrics.LeaseExpiries, 1)
			delete(c.leases, e.owner)
		}
		return
	}
	if tracked {
		cur.until = sent.Add(p.LockLease)
		c.leases[e.owner] = cur
	}
	atomic.AddInt64(&c.metrics.LeaseRenewals, 1)
}
