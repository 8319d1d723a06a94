// Client-side observability: the latency histograms behind Client.Stats,
// the helpers recovery and scrub passes use to time themselves, and the
// Stats RPC fan-out that collects every server's view.

package client

import (
	"fmt"
	"io"
	"time"

	"csar/internal/obs"
	"csar/internal/wire"
)

// Observe records one duration into the named client histogram. The file
// I/O paths use it for the op histograms (op_read, op_write and its
// per-path splits, parity_lock_wait); the scrub and recovery packages reuse
// it for whole-pass timings (scrub_pass, rebuild_pass, resync_pass,
// replay_pass).
func (c *Client) Observe(name string, d time.Duration) {
	c.obs.Hist(name).Observe(d)
}

// sinceStart measures elapsed time for a histogram: simulated time under
// the performance model (what the paper's figures are denominated in), wall
// time otherwise.
func (c *Client) sinceStart(start time.Time) time.Duration {
	if c.clock.Timed() {
		return c.clock.SimSince(start)
	}
	return time.Since(start)
}

// ObserveSince records the time elapsed since start — sim-aware, like every
// client histogram — into the named histogram. `defer c.ObserveSince("x",
// time.Now())` at the top of a pass times the whole pass.
func (c *Client) ObserveSince(name string, start time.Time) {
	c.Observe(name, c.sinceStart(start))
}

// Stats snapshots the client's latency histograms and counters.
func (c *Client) Stats() obs.Snapshot { return c.obs.Snapshot() }

// ServerStats fetches every I/O server's observability snapshot over the
// Stats RPC. Unreachable servers get a zero-value entry (Requests < 0 marks
// them) rather than failing the whole collection — an operator inspecting a
// degraded cluster is exactly who calls this.
func (c *Client) ServerStats() []wire.StatsResp {
	out := make([]wire.StatsResp, len(c.srv))
	c.EachServer(len(c.srv), nil, func(i int) error { //nolint:errcheck // partial results wanted
		resp, err := c.callSrv(i, &wire.Stats{})
		if err != nil {
			out[i] = wire.StatsResp{Index: uint16(i), Requests: -1}
			return nil
		}
		sr, ok := resp.(*wire.StatsResp)
		if !ok {
			out[i] = wire.StatsResp{Index: uint16(i), Requests: -1}
			return nil
		}
		out[i] = *sr
		return nil
	})
	return out
}

// SnapOfStatsResp converts one server's Stats reply into an obs snapshot,
// so server dumps can be merged and rendered with the same code as client
// snapshots.
func SnapOfStatsResp(sr wire.StatsResp) obs.Snapshot {
	var s obs.Snapshot
	for _, kv := range sr.Counters {
		s.Counters = append(s.Counters, obs.KV{Name: kv.Name, Value: kv.Value})
	}
	for _, kv := range sr.Gauges {
		s.Gauges = append(s.Gauges, obs.KV{Name: kv.Name, Value: kv.Value})
	}
	for _, h := range sr.Hists {
		s.Hists = append(s.Hists, obs.SnapFromDump(h.Name, h.Count, h.Sum, h.Max, h.Buckets))
	}
	return s
}

// Close retires the intents of the client's completed read-modify-writes
// and stops the heartbeat, then releases the client's transport resources:
// every server caller and the manager caller that can be closed, is. It
// returns once neither the heartbeat nor a fan-out goroutine of the client
// is left.
func (c *Client) Close() error {
	c.FlushRetires()
	c.lmu.Lock()
	if c.hbStop != nil {
		close(c.hbStop)
		c.hbStop = nil
	}
	done := c.hbDone
	c.lmu.Unlock()
	if done != nil {
		<-done
	}
	var firstErr error
	for i, s := range c.srv {
		if cl, ok := s.(io.Closer); ok {
			if err := cl.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("client: closing server %d caller: %w", i, err)
			}
		}
	}
	for i, m := range c.mgrs {
		if cl, ok := m.(io.Closer); ok {
			if err := cl.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("client: closing manager %d caller: %w", i, err)
			}
		}
	}
	c.pool.Close()
	return firstErr
}
