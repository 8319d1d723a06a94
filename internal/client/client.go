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

	"csar/internal/obs"
	"csar/internal/simtime"
	"csar/internal/wire"
)

// Caller issues one request and returns its response; rpc.Client implements
// it over a connection, and test harnesses implement it in-process.
type Caller interface {
	Call(m wire.Msg) (wire.Msg, error)
}

// ErrDegradedWrite is returned when writing a Raid0 (or instrumented RAID5
// variant) file while one of its servers is marked down: those schemes have
// no redundancy to carry the failed server's share of the write. Raid1,
// Raid5 and Hybrid files accept degraded writes.
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

	clock   *simtime.Clock
	xorBW   float64          // client XOR throughput, bytes per simulated second
	callCPU time.Duration    // per-request client-side processing cost
	cpu     *simtime.Limiter // the client's serial CPU

	metrics metrics

	// obs holds the client's latency histograms: one per logical op and
	// write path, one per RPC kind, plus the parity-lock wait (stats.go).
	obs *obs.Registry

	// health is the per-server circuit-breaker state (resilience.go).
	health []serverHealth

	// leases tracks live parity-lock acquisitions for heartbeat renewal
	// (lease.go), keyed by owner token.
	lmu       sync.Mutex
	leases    map[uint64]leaseEntry
	hbRunning bool

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
	return &Client{
		mgrs:    mgrs,
		srv:     servers,
		obs:     obs.NewRegistry(),
		down:    make(map[int]bool),
		health:  make([]serverHealth, len(servers)),
		leases:  make(map[uint64]leaseEntry),
		outages: make(map[outageKey]uint64),
		passes:  make(map[outageKey]*Pass),
		rng:     rand.New(rand.NewSource(1)),
	}
}

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
	c.Observe("rpc_"+m.Kind().String(), c.sinceStart(start))
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
			c.metrics.retries.Add(1)
			c.backoff(a, p)
		}
		resp, err := c.callOnceT(idx, m, p.CallTimeout, trace)
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
			c.metrics.timeouts.Add(1)
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
	return c.eachServer(int(or.Ref.Servers), func(i int) error {
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
	err := c.eachServer(len(c.srv), func(i int) error {
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
	return c.eachServer(len(c.srv), func(i int) error {
		_, err := c.callSrv(i, &wire.DropCaches{})
		return err
	})
}

// eachServer runs fn for servers [0,n) concurrently and returns the first
// error.
func (c *Client) eachServer(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
