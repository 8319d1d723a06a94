package meta

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"csar/internal/rpc"
	"csar/internal/wire"
)

// TCPPeer is a redialing Caller to a peer manager, tolerant of the peer
// being down: the connection is established lazily on first use and
// re-established after it fails, so a standby that is dead when the primary
// starts does not wedge replication — its ships fail with an unavailability
// error and it catches up via a snapshot when it returns.
type TCPPeer struct {
	addr    string
	timeout time.Duration

	mu  sync.Mutex
	cli *rpc.Client
}

// NewTCPPeer returns a caller for the manager at addr. timeout bounds each
// replication RPC (zero means no deadline — not recommended: a hung standby
// would stall every commit behind it).
func NewTCPPeer(addr string, timeout time.Duration) *TCPPeer {
	return &TCPPeer{addr: addr, timeout: timeout}
}

func (p *TCPPeer) get() (*rpc.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cli != nil {
		return p.cli, nil
	}
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("meta: dial peer %s: %v: %w", p.addr, err, wire.ErrUnavailable)
	}
	p.cli = rpc.NewClient(conn, nil, nil)
	return p.cli, nil
}

func (p *TCPPeer) drop(failed *rpc.Client) {
	p.mu.Lock()
	if p.cli == failed {
		failed.Close()
		p.cli = nil
	}
	p.mu.Unlock()
}

// Call issues one RPC to the peer, re-dialing a dead connection on the next
// attempt.
func (p *TCPPeer) Call(m wire.Msg) (wire.Msg, error) {
	cli, err := p.get()
	if err != nil {
		return nil, err
	}
	resp, err := cli.CallTraced(m, 0, p.timeout)
	if err != nil && errors.Is(err, rpc.ErrClosed) {
		p.drop(cli)
	}
	return resp, err
}

// Close drops the cached connection. The peer stays usable — a later Call
// re-dials.
func (p *TCPPeer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cli == nil {
		return nil
	}
	err := p.cli.Close()
	p.cli = nil
	return err
}
