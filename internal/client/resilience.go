package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/wire"
)

// This file is the client's RPC resilience layer: per-call deadlines,
// retries with exponential backoff and jitter for idempotent requests, and
// a per-server circuit breaker with probing re-admission. Together with the
// automatic degraded-read failover in file.go it is what turns the paper's
// redundancy from an offline-recovery story into an online one — a hung or
// dead I/O server costs one deadline, not a wedged file system.

// ErrBreakerOpen is returned without touching the network when a server's
// circuit breaker is open: the server failed repeatedly and its re-admission
// probe has not yet succeeded.
var ErrBreakerOpen = errors.New("client: server circuit breaker open")

// ErrNeedsRebuild explains why a healthy-looking server is still refused:
// degraded writes ran while it was out, so its stores are stale until
// Rebuild and MarkUp.
var ErrNeedsRebuild = errors.New("client: server missed degraded writes; rebuild before re-admission")

// ServerError attributes a transport-level failure to one I/O server. The
// read path uses it to pick the degraded-reconstruction target; it is only
// produced for unavailability-class failures (timeouts, dead connections,
// CodeUnavailable responses), never for application errors.
type ServerError struct {
	Idx int
	Err error
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server %d unavailable: %v", e.Idx, e.Err)
}

func (e *ServerError) Unwrap() error { return e.Err }

// FailedServer extracts the server index from an unavailability error
// returned by a client operation; ok is false for other errors.
func FailedServer(err error) (idx int, ok bool) {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Idx, true
	}
	return -1, false
}

// Policy tunes the resilience layer. The zero Policy disables it entirely —
// no deadlines, no retries, no breaker — which is what correctness tests
// and the performance model (whose modeled delays must never race wall-
// clock deadlines) want.
type Policy struct {
	// CallTimeout is the per-call deadline on every I/O-server request;
	// non-positive means none.
	CallTimeout time.Duration
	// Retries is how many times an idempotent call is re-issued after an
	// unavailability-class failure. Non-idempotent calls (writes, locked
	// parity reads) are never retried: a lost response leaves the server-
	// side effect in place, and blindly repeating it could release another
	// client's lock or double-apply a side effect.
	Retries int
	// BackoffBase is the sleep before the first retry; each further retry
	// doubles it, capped at BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens a server's circuit breaker after this many
	// consecutive unavailability failures; non-positive disables the
	// breaker.
	BreakerThreshold int
	// ProbeAfter is how long an open breaker waits before the next
	// re-admission probe (a Health call).
	ProbeAfter time.Duration
	// LockLease bounds how long a parity-lock acquisition may go without a
	// heartbeat before the server revokes it and fail-stops the stripe (the
	// write-hole close: a crashed client cannot wedge a stripe forever).
	// Non-positive requests no lease — the lock is held until released,
	// which is what correctness tests and the performance model want.
	LockLease time.Duration
	// LeaseRenewEvery is the heartbeat period for held leases. Zero derives
	// LockLease/3; negative disables renewal (tests use that to force an
	// expiry deterministically).
	LeaseRenewEvery time.Duration
}

// DefaultPolicy is the resilience configuration csar.Dial applies to real
// deployments: 2-second deadlines, two retries from 2ms backoff, a breaker
// tripping after three consecutive failures and probing every 250ms.
func DefaultPolicy() Policy {
	return Policy{
		CallTimeout:      2 * time.Second,
		Retries:          2,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		BreakerThreshold: 3,
		ProbeAfter:       250 * time.Millisecond,
		LockLease:        10 * time.Second,
	}
}

// BreakerState is one server's circuit-breaker state.
type BreakerState int32

const (
	// BreakerClosed: the server is healthy; calls flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the server failed BreakerThreshold consecutive calls;
	// requests fail fast (and reads route degraded) until a probe succeeds.
	BreakerOpen
	// BreakerProbing: a re-admission Health probe is in flight.
	BreakerProbing
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerProbing:
		return "probing"
	}
	return fmt.Sprintf("breaker(%d)", int32(s))
}

// serverHealth is the breaker bookkeeping for one server.
type serverHealth struct {
	mu      sync.Mutex
	state   BreakerState
	fails   int       // consecutive unavailability failures
	retryAt time.Time // open: when the next probe may run
	// stale records that degraded writes ran while the server was out: its
	// stores miss data, so a successful probe must NOT re-admit it — only
	// Rebuild + MarkUp may.
	stale bool
}

// lockTokenFallback backs nextLockToken when the system's entropy source is
// unreadable (effectively never); mixing a counter into the clock keeps even
// that path unique within a process.
var lockTokenFallback atomic.Uint64

// nextLockToken returns a fresh parity-lock acquisition token (wire
// ReadParity.Owner / UnlockParity.Owner / WriteParity.Owner). The server
// cancels ghost acquisitions by token alone, with no notion of which client
// a token belongs to, so tokens must be unique across every process that can
// reach the same servers — a counter would make all clients emit the same
// sequence and let one client's ghost-release free another's live lock. Each
// token is therefore an independent 64-bit draw from crypto/rand (collision
// odds ~2^-64 per pair). Token 0 is reserved for "none".
func nextLockToken() uint64 {
	var b [8]byte
	for {
		var t uint64
		if _, err := crand.Read(b[:]); err != nil {
			t = uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 + lockTokenFallback.Add(1)
		} else {
			t = binary.LittleEndian.Uint64(b[:])
		}
		if t != 0 {
			return t
		}
	}
}

// SetPolicy installs a resilience policy on the client. Call it before
// issuing I/O; the zero Policy (the default for clients built by
// cluster.NewClient) disables the layer.
func (c *Client) SetPolicy(p Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

// Policy returns the client's current resilience policy.
func (c *Client) Policy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

func (c *Client) getPolicy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// BreakerStates returns every server's current breaker state.
func (c *Client) BreakerStates() []BreakerState {
	states := make([]BreakerState, len(c.srv))
	for i := range c.health {
		h := &c.health[i]
		h.mu.Lock()
		states[i] = h.state
		h.mu.Unlock()
	}
	return states
}

// isUnavailable classifies an error from a server call: true for transport-
// level failures and CodeUnavailable responses (retry/failover territory),
// false for application errors from a live server (retrying cannot help).
func isUnavailable(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeUnavailable
	}
	return true
}

// isIdempotent reports whether a request may be safely re-issued after a
// failure whose server-side effect is unknown. Reads, checksums, stat and
// liveness checks qualify. Writes do not. A locked ReadParity does not
// either: the lost response may have granted the lock, and a retried
// acquisition behind it would deadlock on our own ghost — the RMW path
// handles that case with an owner-token UnlockParity instead.
func isIdempotent(m wire.Msg) bool {
	switch m := m.(type) {
	case *wire.Read, *wire.ReadMirror, *wire.Ping, *wire.Health,
		*wire.StorageStat, *wire.ChecksumRange, *wire.OverflowDump,
		*wire.RenewLease, *wire.ListIntents, *wire.DirtyDump, *wire.RetireIntents:
		return true
	case *wire.MarkDirty:
		// Re-delivery only bumps the marked items' generation counters; the
		// log contents are a set, so a duplicate record is absorbed.
		return true
	case *wire.ReadParity:
		return !m.Lock
	}
	return false
}

// backoffJitter is the most random extra sleep a retry adds, as a fraction
// of its backoff, to de-synchronize clients that failed together.
const backoffJitter = 0.2

// backoff sleeps before retry attempt a (1-based), exponentially from
// BackoffBase with jitter.
func (c *Client) backoff(attempt int, p Policy) {
	if p.BackoffBase <= 0 {
		return
	}
	d := p.BackoffBase << (attempt - 1)
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	c.mu.Lock()
	j := c.rng.Float64()
	c.mu.Unlock()
	time.Sleep(d + time.Duration(float64(d)*backoffJitter*j))
}

// admit is the breaker's gate on one call: closed passes, open fails fast
// (probing first when a probe is due). A server under active resync passes
// unconditionally: its breaker is rightly open-and-stale, but the replay
// traffic and forwarded foreground writes must reach it.
func (c *Client) admit(idx int, p Policy) error {
	if c.resyncingServer(idx) {
		return nil
	}
	h := &c.health[idx]
	h.mu.Lock()
	switch h.state {
	case BreakerClosed:
		h.mu.Unlock()
		return nil
	case BreakerProbing:
		h.mu.Unlock()
		return &ServerError{Idx: idx, Err: ErrBreakerOpen}
	}
	// Open. Probe if due, else fail fast.
	if time.Now().Before(h.retryAt) {
		h.mu.Unlock()
		return &ServerError{Idx: idx, Err: ErrBreakerOpen}
	}
	h.state = BreakerProbing
	h.mu.Unlock()
	if err := c.probe(idx, p); err != nil {
		return &ServerError{Idx: idx, Err: err}
	}
	return nil
}

// probe issues one Health call to an open server and re-admits it on
// success — unless degraded writes made it stale, in which case only
// Rebuild + MarkUp may close the breaker. The caller has moved the breaker
// to BreakerProbing.
func (c *Client) probe(idx int, p Policy) error {
	atomic.AddInt64(&c.metrics.BreakerProbes, 1)
	_, err := c.srv[idx].CallTraced(&wire.Health{}, 0, p.CallTimeout)
	h := &c.health[idx]
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.state = BreakerOpen
		h.retryAt = time.Now().Add(p.ProbeAfter)
		return fmt.Errorf("probe: %w", err)
	}
	if h.stale {
		h.state = BreakerOpen
		h.retryAt = time.Now().Add(p.ProbeAfter)
		return ErrNeedsRebuild
	}
	h.state = BreakerClosed
	h.fails = 0
	atomic.AddInt64(&c.metrics.BreakerReadmits, 1)
	return nil
}

// noteFailure counts one unavailability failure toward the breaker.
func (c *Client) noteFailure(idx int, p Policy) {
	if p.BreakerThreshold <= 0 {
		return
	}
	h := &c.health[idx]
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails++
	if h.state == BreakerClosed && h.fails >= p.BreakerThreshold {
		h.state = BreakerOpen
		h.retryAt = time.Now().Add(p.ProbeAfter)
		atomic.AddInt64(&c.metrics.BreakerTrips, 1)
	}
}

// noteSuccess resets the consecutive-failure count.
func (c *Client) noteSuccess(idx int) {
	h := &c.health[idx]
	h.mu.Lock()
	h.fails = 0
	h.mu.Unlock()
}

// markStale records that a degraded write ran while server idx was out;
// breaker probes will then refuse to re-admit it until Rebuild + MarkUp.
func (c *Client) markStale(idx int) {
	if idx < 0 || idx >= len(c.health) {
		return
	}
	h := &c.health[idx]
	h.mu.Lock()
	h.stale = true
	h.mu.Unlock()
}

// resetHealth clears server idx's breaker and staleness (MarkUp's job,
// after Rebuild).
func (c *Client) resetHealth(idx int) {
	if idx < 0 || idx >= len(c.health) {
		return
	}
	h := &c.health[idx]
	h.mu.Lock()
	h.state = BreakerClosed
	h.fails = 0
	h.stale = false
	h.mu.Unlock()
}

// breakerDown reports whether server idx is refused by its breaker right
// now, running a re-admission probe first when one is due. Normal traffic
// routes around an open breaker (degraded reads), so this probe is the only
// way a recovered server gets noticed.
func (c *Client) breakerDown(idx int) bool {
	p := c.getPolicy()
	if p.BreakerThreshold <= 0 || idx >= len(c.health) {
		return false
	}
	h := &c.health[idx]
	h.mu.Lock()
	state := h.state
	probeDue := state == BreakerOpen && !time.Now().Before(h.retryAt)
	if probeDue {
		h.state = BreakerProbing
	}
	h.mu.Unlock()
	switch {
	case state == BreakerClosed:
		return false
	case probeDue:
		return c.probe(idx, p) != nil
	default:
		return true
	}
}

// releaseParityLock fires a best-effort, asynchronous UnlockParity for a
// locked parity-read acquisition whose outcome is unknown (the read failed
// or timed out client-side, but the server may have granted the lock). The
// owner token guarantees it can only release our own ghost acquisition —
// never a lock since granted to another client. dirty tells the server
// whether data writes may have landed under this acquisition: false means
// the stripe is untouched (the server simply retires the intent and hands
// the lock on), true means parity and data may disagree, so the server
// fail-stops the stripe until intent replay reconciles it.
func (c *Client) releaseParityLock(idx int, ref wire.FileRef, stripe int64, token uint64, dirty bool) {
	p := c.getPolicy()
	atomic.AddInt64(&c.metrics.LockReleases, 1)
	go func() {
		c.srv[idx].CallTraced(&wire.UnlockParity{ //nolint:errcheck // best effort
			File: ref, Stripes: []int64{stripe}, Owner: token, Dirty: dirty,
		}, 0, p.CallTimeout)
	}()
}
