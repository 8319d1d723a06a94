// Manager-group routing: every metadata RPC goes through mgrCall, which
// holds a sticky current manager and fails over across the configured
// group. The manager is never on the data path, so this file is the whole
// of the client's metadata high-availability story: when the primary dies
// mid-operation, the call surfaces an unavailability (or fencing) error,
// the client walks the remaining managers, and the first one that answers
// as primary becomes the new sticky target.

package client

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"csar/internal/wire"
)

// mgrFailover classifies a manager-call error: true means the error says
// nothing against the request itself, only against the manager that served
// it — it is dead (transport failure, CodeUnavailable), not the primary
// (CodeNotPrimary), or deposed (CodeStaleEpoch) — so the same request may
// be offered to the next manager in the group.
func mgrFailover(err error) bool {
	if errors.Is(err, wire.ErrNotPrimary) || errors.Is(err, wire.ErrStaleEpoch) {
		return true
	}
	return isUnavailable(err)
}

// mgrIdempotent reports whether a manager request may be re-issued after a
// failure whose effect is unknown. Reads of the namespace qualify, as does
// SetSize: the manager applies it with max semantics, so a duplicate is
// absorbed. The scheme-migration trio qualifies by design — SetScheme
// resumes a matching live pin, and CommitScheme/AbortScheme are fenced by
// the shadow ID, so a duplicate is answered, not re-applied. Create and
// Remove do not — a lost response may have mutated the namespace, and
// blindly repeating a Create would fail on its own first success.
func mgrIdempotent(m wire.Msg) bool {
	switch m.(type) {
	case *wire.Open, *wire.List, *wire.Ping, *wire.ServerList,
		*wire.Stats, *wire.MetaStatus, *wire.SetSize,
		*wire.SetScheme, *wire.CommitScheme, *wire.AbortScheme:
		return true
	}
	return false
}

// mgrCallOnce issues one attempt against manager idx, with the same
// deadline plumbing as the I/O-server path: native transport deadlines
// when available, a racing goroutine otherwise.
func (c *Client) mgrCallOnce(idx int, m wire.Msg, timeout time.Duration) (wire.Msg, error) {
	if timeout <= 0 {
		return c.mgrs[idx].Call(m)
	}
	if tc, ok := c.mgrs[idx].(timeoutCaller); ok {
		return tc.CallTimeout(m, timeout)
	}
	type result struct {
		resp wire.Msg
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := c.mgrs[idx].Call(m)
		ch <- result{resp, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
		return nil, ErrCallTimeout
	}
}

// mgrCall issues one metadata request with manager failover. Within one
// cycle every manager gets a chance, starting from the sticky current one;
// idempotent requests additionally earn Policy.Retries extra cycles with
// backoff, covering the window where a standby has been probed but not yet
// promoted. A success away from the sticky manager moves the stickiness
// (and counts a MetaFailover), so the whole group is walked only while the
// cluster is actually in flux.
func (c *Client) mgrCall(m wire.Msg) (wire.Msg, error) {
	p := c.getPolicy()
	n := len(c.mgrs)
	cycles := 1
	if p.Retries > 0 && mgrIdempotent(m) {
		cycles += p.Retries
	}
	start := int(c.mgrCur.Load())
	if start >= n {
		start = 0
	}
	var lastErr error
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc > 0 {
			atomic.AddInt64(&c.metrics.Retries, 1)
			c.backoff(cyc, p)
		}
		for off := 0; off < n; off++ {
			idx := (start + off) % n
			resp, err := c.mgrCallOnce(idx, m, p.CallTimeout)
			if err == nil {
				if idx != start {
					c.mgrCur.Store(int32(idx))
					atomic.AddInt64(&c.metrics.MetaFailovers, 1)
				}
				return resp, nil
			}
			if !mgrFailover(err) {
				return nil, err
			}
			if errors.Is(err, context.DeadlineExceeded) {
				atomic.AddInt64(&c.metrics.Timeouts, 1)
			}
			lastErr = err
		}
	}
	return nil, lastErr
}

// NumManagers returns the number of managers in the client's group.
func (c *Client) NumManagers() int { return len(c.mgrs) }

// CurrentManager returns the index (into the group passed to NewMulti) of
// the manager metadata RPCs currently route to.
func (c *Client) CurrentManager() int { return int(c.mgrCur.Load()) }

// ManagerStatuses probes every manager in the group with MetaStatus and
// returns their role/epoch reports in group order. An unreachable manager
// gets a zero-value entry with Files == -1 rather than failing the whole
// collection — an operator inspecting a half-dead cluster is exactly who
// calls this.
func (c *Client) ManagerStatuses() []wire.MetaStatusResp {
	p := c.getPolicy()
	out := make([]wire.MetaStatusResp, len(c.mgrs))
	for i := range c.mgrs {
		resp, err := c.mgrCallOnce(i, &wire.MetaStatus{}, p.CallTimeout)
		sr, ok := resp.(*wire.MetaStatusResp)
		if err != nil || !ok {
			out[i] = wire.MetaStatusResp{Index: uint16(i), Files: -1}
			continue
		}
		out[i] = *sr
	}
	return out
}

// ManagerStats fetches every manager's observability snapshot over the
// Stats RPC, in group order. Unreachable managers get a zero-value entry
// with Requests < 0, mirroring ServerStats.
func (c *Client) ManagerStats() []wire.StatsResp {
	p := c.getPolicy()
	out := make([]wire.StatsResp, len(c.mgrs))
	for i := range c.mgrs {
		resp, err := c.mgrCallOnce(i, &wire.Stats{}, p.CallTimeout)
		sr, ok := resp.(*wire.StatsResp)
		if err != nil || !ok {
			out[i] = wire.StatsResp{Index: uint16(i), Requests: -1}
			continue
		}
		out[i] = *sr
	}
	return out
}
