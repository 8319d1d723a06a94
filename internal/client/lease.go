package client

import (
	"sync/atomic"
	"time"

	"csar/internal/wire"
)

// This file keeps leased parity-lock acquisitions alive. A locked ReadParity
// issued with Policy.LockLease > 0 opens a lease on the parity server: if no
// heartbeat arrives before the deadline, the server revokes the lock and
// fail-stops the stripe (see internal/server/intent.go). While the RMW is in
// flight the client therefore registers the acquisition here, and a single
// background goroutine renews every registered lease at the heartbeat
// period. A healthy RMW completes in far less than one lease, so the
// heartbeat only matters when the write phase stalls — exactly the case the
// lease exists to distinguish from a crashed client.

// leaseEntry identifies one live acquisition: which server holds the lock,
// for which file and stripe, and under which owner token.
type leaseEntry struct {
	srv    int
	ref    wire.FileRef
	stripe int64
	owner  uint64
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

// trackLease registers a granted leased acquisition for heartbeat renewal
// and starts the renewal goroutine if it is not already running.
func (c *Client) trackLease(srv int, ref wire.FileRef, stripe int64, owner uint64) {
	p := c.getPolicy()
	every := renewEvery(p)
	if every <= 0 {
		return
	}
	c.lmu.Lock()
	c.leases[owner] = leaseEntry{srv: srv, ref: ref, stripe: stripe, owner: owner}
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

// heartbeat renews every registered lease once per period and exits when the
// registry drains; trackLease restarts it on the next leased acquisition.
func (c *Client) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		c.lmu.Lock()
		if len(c.leases) == 0 {
			c.hbRunning = false
			c.lmu.Unlock()
			return
		}
		entries := make([]leaseEntry, 0, len(c.leases))
		for _, e := range c.leases {
			entries = append(entries, e)
		}
		c.lmu.Unlock()
		for _, e := range entries {
			c.renewLease(e)
		}
	}
}

// renewLease sends one heartbeat for one acquisition. A response renewing
// fewer stripes than asked means the server already expired the lease: the
// entry is dropped (the in-flight RMW will learn the same from its fenced
// parity write) and the expiry is counted. Transport failures are left for
// the next tick — the lease is sized to survive several missed heartbeats.
func (c *Client) renewLease(e leaseEntry) {
	p := c.getPolicy()
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
	if rr.Renewed < 1 {
		atomic.AddInt64(&c.metrics.LeaseExpiries, 1)
		c.untrackLease(e.owner)
		return
	}
	atomic.AddInt64(&c.metrics.LeaseRenewals, 1)
}
