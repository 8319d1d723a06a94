// Package client implements the CSAR client library: PVFS-style striped
// access to the I/O servers, extended with the RAID1, RAID5 and Hybrid
// redundancy engines of the paper.
//
// As in PVFS, a client obtains a file's layout from the manager once and
// then moves data directly between itself and the I/O servers; the manager
// is never on the data path. All redundancy work — mirroring, parity
// computation, the partial-stripe read-modify-write with its lock ordering,
// and the Hybrid scheme's overflow writes — happens in this package, which
// is why the paper can describe CSAR as "implemented by adding new routines"
// around an unchanged data layout.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/gopool"
	"csar/internal/obs"
	"csar/internal/simtime"
	"csar/internal/wire"
)

// Caller issues one request and returns its response; rpc.Client implements
// it over a connection. CallTraced carries an operation trace ID in the
// request's wire header (zero: untraced) and abandons the call with an
// error wrapping context.DeadlineExceeded once timeout expires (zero: no
// deadline).
type Caller interface {
	Call(m wire.Msg) (wire.Msg, error)
	CallTraced(m wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error)
}

// ErrDegradedWrite is returned when writing a file while its servers that
// are down outnumber what a degraded write can carry: one down server of a
// file with redundancy (and a parity engine not ablated), none otherwise.
var ErrDegradedWrite = errors.New("client: scheme cannot write while a server is down")

// ErrNoRedundancy is returned when a degraded read is attempted on a RAID0
// file.
var ErrNoRedundancy = errors.New("client: raid0 stores no redundancy; data on a failed server is lost")

// Client is one mount of a CSAR file system.
type Client struct {
	// mgrs is the manager group — the primary and its standbys, in cluster
	// index order. mgrCur is the sticky index metadata RPCs route to;
	// mgrCall moves it on failover (mgr.go).
	mgrs   []Caller
	mgrCur atomic.Int32

	srv []Caller

	// ablation is applied to every file handle setLayout builds.
	ablation Ablation

	clock   *simtime.Clock
	xorBW   float64          // client XOR throughput, bytes per simulated second
	callCPU time.Duration    // per-request client-side processing cost
	cpu     *simtime.Limiter // the client's serial CPU

	// obs holds the client's latency histograms — one per logical op and
	// write path, one per RPC kind, plus the parity-lock wait (stats.go) —
	// and publishes the metrics counter set (metrics.go).
	obs      *obs.Registry
	metrics  *Metrics
	rpcHists *obs.KindHists[wire.Kind] // the per-RPC-kind histograms, looked up once
	pool     gopool.Pool               // runs the legs of fan-outs (EachServer) and other per-op work

	// health is the per-server circuit-breaker state (resilience.go).
	health []serverHealth

	// lmu guards the client's sessions, one per server, the last seq issued
	// across them, and the releases no server has answered yet (lease.go).
	// hbDone is non-nil while the heartbeat runs, and closed when it exits;
	// closing hbStop stops it, and Close clears hbStop.
	lmu      sync.Mutex
	sessions []session
	seq      uint64
	releases map[uint64]*release // by seq
	hbDone   chan struct{}
	hbStop   chan struct{}

	mu     sync.Mutex
	down   map[int]bool
	policy Policy
	rng    *rand.Rand

	// dmu guards the per-outage epochs of the dirty-region log (dirty.go)
	// and the registry of background passes (pass.go).
	dmu     sync.Mutex
	outages map[outageKey]uint64
	passes  map[outageKey]*Pass
	// passActive counts registered passes, so that with none a foreground
	// write's lookup is one atomic load. passGate is the one gate every
	// foreground read and write shares and every pass's Exclusive sections
	// take; passExclusive, written only under its exclusive side, is how
	// Pass.Advance checks it is called from inside one.
	passActive    atomic.Int32
	passGate      sync.RWMutex
	passExclusive bool
}

// New creates a client talking to one manager and the I/O servers. The
// resilience layer starts disabled; SetPolicy turns it on.
func New(mgr Caller, servers []Caller) *Client {
	return NewMulti([]Caller{mgr}, servers)
}

// NewMulti creates a client talking to a manager group — the primary plus
// any standbys, in cluster index order — and the I/O servers. Metadata
// RPCs route to one sticky manager and fail over across the group when it
// dies or answers with a not-primary/stale-epoch fencing error.
func NewMulti(mgrs []Caller, servers []Caller) *Client {
	reg := obs.NewRegistry()
	c := &Client{
		mgrs:     mgrs,
		srv:      servers,
		obs:      reg,
		metrics:  obs.NewCounters[Metrics](reg),
		rpcHists: obs.NewKindHists[wire.Kind](reg, "rpc_"),
		down:     make(map[int]bool),
		health:   make([]serverHealth, len(servers)),
		sessions: make([]session, len(servers)),
		releases: make(map[uint64]*release),
		hbStop:   make(chan struct{}),
		outages:  make(map[outageKey]uint64),
		passes:   make(map[outageKey]*Pass),
		rng:      rand.New(rand.NewSource(1)), // backoff jitter, reproducible
	}
	id := nextLockToken()
	for i := range c.sessions {
		c.sessions[i] = session{id: id, inflight: make(map[uint64]struct{})}
	}
	return c
}

// Ablation switches off one part of the parity engine so the model track can
// measure its cost; only the test harness sets one (cluster.Cluster). A file
// under an ablation keeps no parity promise and refuses degraded writes.
type Ablation uint8

const (
	// AblateLock: read-modify-writes take no parity lock (Figure 3).
	AblateLock Ablation = 1 + iota
	// AblateCompute: parity ships uncomputed (Figure 4a's RAID5-npc).
	AblateCompute
)

// SetAblation sets the ablation of every file handle the client builds from
// now on; zero runs the whole engine.
func (c *Client) SetAblation(a Ablation) { c.ablation = a }

// SetModel enables the performance model on this client: parity XOR
// computation is charged at xorBW bytes per simulated second, and every
// I/O-server request costs callCPU of serial client CPU (the PVFS library,
// kernel and TCP path of the paper's 1 GHz nodes). The paper measures the
// XOR cost at about 8% of the RAID5 full-stripe write time (the RAID5-npc
// curve of Figure 4a).
func (c *Client) SetModel(clock *simtime.Clock, xorBW float64, callCPU time.Duration) {
	c.clock = clock
	c.xorBW = xorBW
	c.callCPU = callCPU
	c.cpu = simtime.NewLimiter(clock, 1) // durations only
}

// chargeXOR models the client CPU time of XORing n bytes.
func (c *Client) chargeXOR(n int64) {
	if c.clock.Timed() && c.xorBW > 0 && n > 0 {
		c.clock.Sleep(time.Duration(float64(n) / c.xorBW * float64(time.Second)))
	}
}

// chargeGF models the client CPU time of a GF(256) multiply-accumulate pass
// over n bytes. The table-driven word-at-a-time kernel runs at roughly half
// the XOR bandwidth (see internal/gf256's benchmarks), so it is charged as
// two XOR passes rather than through a separate model knob.
func (c *Client) chargeGF(n int64) { c.chargeXOR(2 * n) }

// callSrv issues one request to server idx, charging the modeled client CPU
// first and applying the resilience policy: the breaker's admission gate, a
// per-call deadline, and retries with backoff for idempotent requests. An
// unavailability-class failure comes back as a *ServerError carrying the
// server index, which the read path uses to fail over to reconstruction.
func (c *Client) callSrv(idx int, m wire.Msg) (wire.Msg, error) {
	return c.callSrvT(idx, m, 0)
}

// callSrvT is callSrv with an operation trace ID (zero = untraced): the ID
// rides every attempt's wire header, and the whole call — retries, backoff
// and all — is timed into the per-RPC-kind histogram.
func (c *Client) callSrvT(idx int, m wire.Msg, trace uint64) (wire.Msg, error) {
	if c.clock.Timed() && c.callCPU > 0 {
		c.cpu.AcquireDur(c.callCPU)
	}
	start := time.Now()
	resp, err := c.callSrvInner(idx, m, trace)
	c.rpcHists.Of(m.Kind()).Observe(c.sinceStart(start))
	return resp, err
}

func (c *Client) callSrvInner(idx int, m wire.Msg, trace uint64) (wire.Msg, error) {
	p := c.getPolicy()
	if p.BreakerThreshold > 0 {
		if err := c.admit(idx, p); err != nil {
			return nil, err
		}
	}
	attempts := 1
	if p.Retries > 0 && isIdempotent(m) {
		attempts += p.Retries
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			atomic.AddInt64(&c.metrics.Retries, 1)
			c.backoff(a, p)
		}
		resp, err := c.srv[idx].CallTraced(m, trace, p.CallTimeout)
		if err == nil {
			c.noteSuccess(idx)
			return resp, nil
		}
		if !isUnavailable(err) {
			// An application error from a live server: the request itself
			// was rejected, so neither retrying nor failover can help.
			return nil, err
		}
		if errors.Is(err, context.DeadlineExceeded) {
			atomic.AddInt64(&c.metrics.Timeouts, 1)
		}
		c.noteFailure(idx, p)
		lastErr = err
	}
	return nil, &ServerError{Idx: idx, Err: lastErr}
}

// NumServers returns the number of I/O servers.
func (c *Client) NumServers() int { return len(c.srv) }

// MarkDown flags a server as failed; reads switch to degraded mode.
func (c *Client) MarkDown(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down[idx] = true
}

// MarkUp clears a server's failed flag (after rebuild or resync), including
// any breaker and staleness state the resilience layer accumulated for it
// and the outage epochs of its dirty-region logs (a future outage is a new
// epoch).
func (c *Client) MarkUp(idx int) {
	c.mu.Lock()
	delete(c.down, idx)
	c.mu.Unlock()
	c.resetHealth(idx)
	c.clearOutages(idx)
}

// Down reports whether a server is unusable right now: manually marked
// failed, or refused by its circuit breaker.
func (c *Client) Down(idx int) bool {
	c.mu.Lock()
	manual := c.down[idx]
	c.mu.Unlock()
	return manual || c.breakerDown(idx)
}

// anyDown returns the first unusable server of the file's stripe set:
// manually marked down, or held out by an open breaker. Checking the
// breaker here (with its probing re-admission) is what routes reads to the
// degraded paths while a server is out and back to the normal path once a
// probe finds it recovered.
func (c *Client) anyDown(ref wire.FileRef) (int, bool) {
	n := int(ref.Servers)
	c.mu.Lock()
	for i := 0; i < n; i++ {
		if c.down[i] {
			c.mu.Unlock()
			return i, true
		}
	}
	c.mu.Unlock()
	for i := 0; i < n; i++ {
		if c.breakerDown(i) {
			return i, true
		}
	}
	return -1, false
}

// allDown returns every unusable server of the file's stripe set, in
// ascending order. A stripe with m parity units tolerates up to m
// simultaneous failures, so the degraded paths need the full list where the
// path decision needs only anyDown's first hit.
func (c *Client) allDown(ref wire.FileRef) []int {
	var out []int
	for i := 0; i < int(ref.Servers); i++ {
		if c.Down(i) {
			out = append(out, i)
		}
	}
	return out
}

// server returns the caller for server idx.
func (c *Client) server(idx int) Caller { return c.srv[idx] }

// ServerCaller exposes the raw caller for server idx; the recovery package
// uses it to issue raw reads and rebuild writes outside the normal file API.
func (c *Client) ServerCaller(idx int) Caller { return c.srv[idx] }

// Create makes a new file striped over `servers` I/O servers with the given
// stripe unit and redundancy scheme. Reed-Solomon files get the manager's
// default parity-unit count; CreateParity chooses it explicitly.
func (c *Client) Create(name string, servers int, stripeUnit int64, scheme wire.Scheme) (*File, error) {
	return c.CreateParity(name, servers, stripeUnit, scheme, 0)
}

// CreateParity is Create with an explicit parity-unit count: a Reed-Solomon
// RS(k, m) file striped over servers = k+m I/O servers carries parity = m
// parity units per stripe and survives any m simultaneous server failures.
// parity 0 applies the manager's default (2 for Reed-Solomon); non-RS
// schemes reject an explicit count.
func (c *Client) CreateParity(name string, servers int, stripeUnit int64, scheme wire.Scheme, parity int) (*File, error) {
	resp, err := c.mgrCall(&wire.Create{
		Name:       name,
		Servers:    uint16(servers),
		StripeUnit: uint32(stripeUnit),
		Scheme:     scheme,
		Parity:     uint8(parity),
	})
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*wire.CreateResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected create response %T", resp)
	}
	return c.fileFor(cr.Ref, 0)
}

// Open looks up an existing file by name.
func (c *Client) Open(name string) (*File, error) {
	resp, err := c.mgrCall(&wire.Open{Name: name})
	if err != nil {
		return nil, err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected open response %T", resp)
	}
	return c.fileFor(or.Ref, or.Size)
}

func (c *Client) fileFor(ref wire.FileRef, size int64) (*File, error) {
	f := &File{c: c}
	if err := f.setLayout(ref); err != nil {
		return nil, err
	}
	f.size.Store(size)
	return f, nil
}

// Remove deletes a file: its manager metadata and every server-side store.
func (c *Client) Remove(name string) error {
	resp, err := c.mgrCall(&wire.Open{Name: name})
	if err != nil {
		return err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return fmt.Errorf("client: unexpected open response %T", resp)
	}
	if _, err := c.mgrCall(&wire.Remove{Name: name}); err != nil {
		return err
	}
	return c.EachServer(int(or.Ref.Servers), nil, func(i int) error {
		if _, err := c.callSrv(i, &wire.RemoveFile{File: or.Ref}); err != nil {
			return err
		}
		if or.Mig.ID != 0 {
			// A removal mid-migration also reclaims the pinned shadow
			// layout's stores; the manager dropped its pin with the file.
			_, err := c.callSrv(i, &wire.RemoveFile{File: or.Mig})
			return err
		}
		return nil
	})
}

// List returns the names of all files.
func (c *Client) List() ([]string, error) {
	resp, err := c.mgrCall(&wire.List{})
	if err != nil {
		return nil, err
	}
	lr, ok := resp.(*wire.ListResp)
	if !ok {
		return nil, fmt.Errorf("client: unexpected list response %T", resp)
	}
	return lr.Names, nil
}

// StorageTotals reports each server's total materialized bytes (du-style),
// across all files.
func (c *Client) StorageTotals() ([]int64, error) {
	totals := make([]int64, len(c.srv))
	err := c.EachServer(len(c.srv), nil, func(i int) error {
		resp, err := c.callSrv(i, &wire.StorageStat{})
		if err != nil {
			return err
		}
		totals[i] = resp.(*wire.StorageStatResp).Total
		return nil
	})
	return totals, err
}

// DropServerCaches empties every server's page cache; the paper does this
// between the initial-write and overwrite phases of its experiments.
func (c *Client) DropServerCaches() error {
	return c.EachServer(len(c.srv), nil, func(i int) error {
		_, err := c.callSrv(i, &wire.DropCaches{})
		return err
	})
}

// EachServer runs fn for every i in [0,n) — a server, or any other leg of a
// fan-out — that has work (has nil: every one) concurrently, the last of
// them on the calling goroutine and the others on the client's pool, and
// joins their errors. A fan-out to one leg hands nothing to the pool. It is
// every fan-out of the client's and of the tools built on it, the scrubber
// included.
func (c *Client) EachServer(n int, has func(i int) bool, fn func(i int) error) error {
	last, count := -1, 0
	for i := 0; i < n; i++ {
		if has == nil || has(i) {
			last, count = i, count+1
		}
	}
	switch count {
	case 0:
		return nil
	case 1:
		return fn(last)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		if has != nil && !has(i) {
			continue
		}
		wg.Add(1)
		c.pool.Go(func() {
			defer wg.Done()
			errs[i] = fn(i)
		})
	}
	errs[last] = fn(last)
	wg.Wait()
	return errors.Join(errs...)
}
