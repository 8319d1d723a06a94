package csar

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/rpc"
	"csar/internal/wire"
)

// DefaultConnsPerServer is the size of each I/O server's connection pool.
// One rpc.Client already multiplexes any number of in-flight requests over
// its connection, but a single TCP stream serializes the *bytes*: a large
// write frame from one operation delays every frame queued behind it. A
// small pool gives concurrent operations independent streams.
const DefaultConnsPerServer = 2

// redialCaller is the connection pool to one I/O server, tolerant of the
// server being down. Each slot's TCP connection is established lazily on
// first use and re-established after it fails, so:
//
//   - a server that is dead when Dial runs does not abort the whole client —
//     its calls fail with an unavailability error, which is exactly what
//     trips the circuit breaker and routes reads to the degraded
//     reconstruction paths (the point of the redundancy schemes);
//   - a server that crashes mid-session and comes back is re-admitted by the
//     breaker's Health probe, because the probe's call re-dials instead of
//     hitting a permanently closed rpc client.
//
// Calls pick a slot round-robin; in-flight requests multiplex freely on
// each slot's rpc.Client.
type redialCaller struct {
	addr string
	next atomic.Uint32

	mu    sync.Mutex
	conns []*rpc.Client
}

func newRedialCaller(addr string, conns int) *redialCaller {
	if conns < 1 {
		conns = 1
	}
	return &redialCaller{addr: addr, conns: make([]*rpc.Client, conns)}
}

func (r *redialCaller) get() (*rpc.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.conns) == 0 { // zero-value caller: degenerate single-conn pool
		r.conns = make([]*rpc.Client, 1)
	}
	// Reduce in unsigned space: on 32-bit platforms int(uint32) goes
	// negative once the counter wraps past 2^31, and a negative index
	// would panic here.
	slot := int(r.next.Add(1) % uint32(len(r.conns)))
	if r.conns[slot] != nil {
		return r.conns[slot], nil
	}
	conn, err := net.Dial("tcp", r.addr)
	if err != nil {
		return nil, fmt.Errorf("csar: dial iod %s: %v: %w", r.addr, err, wire.ErrUnavailable)
	}
	r.conns[slot] = rpc.NewClient(conn, nil, nil)
	return r.conns[slot], nil
}

// drop forgets a failed connection so the next call on its slot re-dials.
func (r *redialCaller) drop(failed *rpc.Client) {
	r.mu.Lock()
	for i, c := range r.conns {
		if c == failed {
			failed.Close()
			r.conns[i] = nil
		}
	}
	r.mu.Unlock()
}

var (
	_ client.Caller = (*rpc.Client)(nil)
	_ client.Caller = (*redialCaller)(nil)
)

func (r *redialCaller) Call(m wire.Msg) (wire.Msg, error) {
	return r.CallTraced(m, 0, 0)
}

// CallTraced sends the request with its operation's trace ID in the frame
// header, so server-side slow-op logs can be correlated back to the client
// op, and abandons it once timeout expires.
func (r *redialCaller) CallTraced(m wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error) {
	cli, err := r.get()
	if err != nil {
		return nil, err
	}
	resp, err := cli.CallTraced(m, trace, timeout)
	r.dropIfClosed(cli, err)
	return resp, err
}

// dropIfClosed drops cli after a failed call that left it closed: a broken
// connection (ErrClosed), or one a deadline closed under a response landing
// in the caller's buffer (rpc.ErrTimeout from a now-closed client), so the
// next call on the slot redials instead of failing first.
func (r *redialCaller) dropIfClosed(cli *rpc.Client, err error) {
	if err != nil && (errors.Is(err, rpc.ErrClosed) || cli.Closed()) {
		r.drop(cli)
	}
}

// Close drops every cached connection. The caller stays usable — a later
// call re-dials — but a client being torn down releases its descriptors
// instead of leaking them (periodic dial-work-exit loops depend on this).
func (r *redialCaller) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for i, c := range r.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		r.conns[i] = nil
	}
	return first
}

// Dial connects to a running CSAR deployment: it contacts the manager(s)
// at mgrAddr — a single address, or a comma-separated list naming the
// whole manager group in cluster index order — asks for the I/O server
// addresses, and wires up a connection to every server. The returned
// client is ready for Create/Open, and has DefaultPolicy's resilience
// applied — per-call deadlines, retries of idempotent calls, and the
// per-server circuit breaker; SetResilience overrides it (the zero Policy
// disables the layer).
//
// An I/O server that is unreachable is not an error here: its connection is
// established lazily and, until that succeeds, it is treated like any other
// down server — the breaker opens and reads route through the degraded
// reconstruction paths. With a manager group, a dead manager is likewise
// tolerated: its connection redials lazily and metadata RPCs fail over to
// the survivors. Dial fails only when no manager answers at all.
//
// Deployments are started with the csar-mgr and csar-iod commands; see
// their documentation for the wiring.
func Dial(mgrAddr string) (*Client, error) {
	return DialList(splitAddrs(mgrAddr))
}

// DialList is Dial taking the manager group as an explicit address slice.
func DialList(mgrAddrs []string) (*Client, error) {
	if len(mgrAddrs) == 0 {
		return nil, fmt.Errorf("csar: no manager address")
	}
	mgrs := make([]client.Caller, len(mgrAddrs))
	for i, a := range mgrAddrs {
		mgrs[i] = newRedialCaller(a, 1)
	}
	// Any group member — primary or standby — serves ServerList; take the
	// first that answers.
	var addrs []string
	var lastErr error
	for _, m := range mgrs {
		resp, err := m.CallTraced(&wire.ServerList{}, 0, 5*time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		addrs = resp.(*wire.ServerListResp).Addrs
		lastErr = nil
		break
	}
	if lastErr != nil {
		return nil, fmt.Errorf("csar: server list: no manager reachable: %w", lastErr)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("csar: manager reports no I/O servers")
	}
	callers := make([]client.Caller, len(addrs))
	for i, a := range addrs {
		callers[i] = newRedialCaller(a, DefaultConnsPerServer)
	}
	inner := client.NewMulti(mgrs, callers)
	inner.SetPolicy(client.DefaultPolicy())
	return &Client{inner: inner}, nil
}

// splitAddrs parses a comma-separated address list, trimming whitespace
// and dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
