package client

import (
	"errors"
	"sync/atomic"
	"time"

	"csar/internal/simtime"
)

// This file is the one implementation of "a background pass coordinating
// with this client's foreground I/O". A pass — the delta resync of a
// returning server, or the re-encoding of a file into a shadow layout — is a
// rate-limited sweep behind which the new state is authoritative: it owns a
// monotonic cursor and shares one per-client gate with every foreground read
// and write. What a foreground write does behind the cursor is policy, and
// lives where it is read, in File.WriteAt: behind a resync pass's cursor it
// is forwarded to the recovering server, behind a re-layout pass's cursor it
// is dual-written into the shadow layout.
//
// Coordination is client-local, matching the single-coordinator assumption
// of Rebuild and scrub: other clients' writes during a pass are neither
// forwarded nor mirrored.

// ErrPassActive is returned by BeginPass when the client already runs a pass
// for the same file and server: two passes sharing a key would also share —
// and tear down — each other's cursor.
var ErrPassActive = errors.New("client: a background pass is already active for this file")

// relayoutPass is the dead-server slot of a re-layout pass's key, which
// repairs no server.
const relayoutPass = -1

// Pass is one registered background pass. Its cursor is the logical byte
// offset up to which the pass's work is done; it only ever rises, which is
// what makes a foreground write's decision sound — a region once observed
// behind the cursor can never fall ahead of it again.
type Pass struct {
	c      *Client
	key    outageKey
	dst    *File // the shadow layout of a re-layout pass, else nil
	cursor atomic.Int64
}

// BeginPass registers a pass over one file: a resync of server dead, or with
// dead = -1 a re-layout into dst (a gate-exempt handle from FileForRelayout).
// It fails with ErrPassActive while an earlier pass for the same key has not
// ended. Called by internal/recovery.
func (c *Client) BeginPass(fileID uint64, dead int, dst *File) (*Pass, error) {
	p := &Pass{c: c, key: outageKey{fileID, dead}, dst: dst}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if c.passes[p.key] != nil {
		return nil, ErrPassActive
	}
	c.passes[p.key] = p
	c.passActive.Add(1)
	return p, nil
}

// End deregisters the pass, finished or aborted; foreground writes revert to
// their plain behaviour. Ending twice is harmless.
func (p *Pass) End() {
	p.c.dmu.Lock()
	defer p.c.dmu.Unlock()
	if p.c.passes[p.key] == p {
		delete(p.c.passes, p.key)
		p.c.passActive.Add(-1)
	}
}

// Exclusive runs fn with the pass gate held exclusively: no foreground read
// or write of this client is anywhere inside its decide-record-execute
// section. A pass wraps each unit of its work in it — replay one dirty item,
// copy one chunk, cut over — so a foreground write either finishes before fn
// reads what it wrote, or starts after fn and samples the cursor fn left.
// Only gate-exempt handles and raw server calls are safe inside fn.
func (p *Pass) Exclusive(fn func()) {
	p.c.passGate.Lock()
	p.c.passExclusive = true
	defer func() {
		p.c.passExclusive = false
		p.c.passGate.Unlock()
	}()
	fn()
}

// Advance raises the cursor to logical offset to; a lower value is ignored.
// The cursor moves only inside Exclusive. Every foreground write holds the
// gate's shared side from before it samples the cursor until its last RPC has
// returned, so when an Exclusive section that advanced the cursor returns, no
// write that saw the old value is still running — the terminal advance to
// MaxInt64 is a barrier, not a hint that needs draining.
func (p *Pass) Advance(to int64) {
	if !p.c.passExclusive {
		panic("client: Pass.Advance outside Pass.Exclusive")
	}
	for {
		cur := p.cursor.Load()
		if to <= cur || p.cursor.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Cursor returns the pass's current cursor.
func (p *Pass) Cursor() int64 { return p.cursor.Load() }

// pass returns the active pass for (file, dead), or nil. The caller holds the
// gate (either side), which is what keeps the cursor it then samples stable.
// With no pass anywhere on the client the lookup is one atomic load.
func (c *Client) pass(fileID uint64, dead int) *Pass {
	if c.passActive.Load() == 0 {
		return nil
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	return c.passes[outageKey{fileID, dead}]
}

// resyncingServer reports whether server idx is the target of an active
// resync pass. The breaker's admission gate passes such a server
// unconditionally: its stores are stale (so probes refuse it) but forwarded
// writes and replay traffic must reach it.
func (c *Client) resyncingServer(idx int) bool {
	if c.passActive.Load() == 0 {
		return false
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for k := range c.passes {
		if k.dead == idx {
			return true
		}
	}
	return false
}

// PassLimiter returns the throttle of a background pass moving rate bytes per
// second — of simulated time when the client is timed, else of wall time (one
// simulated second per real second). A rate of zero or less never waits.
func (c *Client) PassLimiter(rate float64) *simtime.Limiter {
	clk := c.clock
	if !clk.Timed() {
		clk = &simtime.Clock{Scale: time.Second}
	}
	return simtime.NewLimiter(clk, rate)
}
