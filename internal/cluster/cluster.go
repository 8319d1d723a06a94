// Package cluster assembles an in-process CSAR deployment: one manager, N
// I/O servers each with its own simulated disk, and any number of clients.
// Every client call goes through the real RPC stack — framing, the landing
// read loop, per-call deadlines — over in-memory pipes; the links to I/O
// servers charge simulated NICs, which only a timed cluster turns into
// delay. It also provides the failure controls the recovery experiments
// need: stopping a server, restarting it, and replacing it with a blank
// one.
package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"csar/internal/client"
	"csar/internal/meta"
	"csar/internal/rpc"
	"csar/internal/server"
	"csar/internal/simdisk"
	"csar/internal/simnet"
	"csar/internal/simtime"
	"csar/internal/wire"
)

// ErrServerDown is returned by calls to a stopped server. It wraps
// wire.ErrUnavailable, so the client's resilience layer classifies the
// wire.Error a client receives for it (via wire.Error.Code) as server
// unavailability rather than an application error.
var ErrServerDown = fmt.Errorf("cluster: server down (%w)", wire.ErrUnavailable)

// Config describes a cluster.
type Config struct {
	// Servers is the number of I/O servers.
	Servers int
	// Clock is the shared time base; nil runs untimed.
	Clock *simtime.Clock
	// Net configures the modeled links between clients and I/O servers.
	Net simnet.Params
	// Disk configures each server's storage model.
	Disk simdisk.Params
	// ServerOpts tunes the I/O daemons.
	ServerOpts server.Options
	// XORBandwidth is the clients' modeled parity-XOR throughput in bytes
	// per simulated second; zero disables the charge.
	XORBandwidth float64
	// ClientRequestCPU is the modeled client-side cost of issuing one
	// I/O-server request (library + kernel + TCP path); zero disables it.
	ClientRequestCPU time.Duration
	// Managers is the number of metadata managers: manager 0 starts as the
	// primary, the rest as replicating standbys. 0 or 1 runs the classic
	// single-manager cluster.
	Managers int
	// MetaDir, when set, makes every manager persistent: manager i keeps
	// its snapshot and WAL under MetaDir/mgr<i>/, so KillManager +
	// RestartManager model a real process crash and recovery-from-log.
	MetaDir string
}

// DefaultConfig returns an untimed cluster of n servers.
func DefaultConfig(n int) Config {
	return Config{
		Servers:    n,
		Net:        simnet.DefaultParams(),
		Disk:       simdisk.Params{PageSize: 4096},
		ServerOpts: server.DefaultOptions(),
	}
}

// ioServer is one server slot: the current server instance (replaceable on
// rebuild), its down flag, and any injected request-level faults.
type ioServer struct {
	srv  atomic.Pointer[server.Server]
	disk atomic.Pointer[simdisk.Disk]
	down atomic.Bool
	node *simnet.Node

	fmu    sync.Mutex
	faults []*InjectedFault
}

// mgrSlot is one manager slot: the current manager instance (replaceable
// on a kill/restart cycle) and its reachability gate. The gate guards
// every path into the manager — clients and peer replication alike — so a
// killed manager is unreachable to the whole cluster, exactly like a dead
// process.
type mgrSlot struct {
	mgr  atomic.Pointer[meta.Manager]
	down atomic.Bool
}

// Cluster is a running deployment.
type Cluster struct {
	// Ablation is the parity-engine ablation every client NewClient builds
	// from now on runs with: the model-track harness's one switch for the
	// figures that measure what the parity lock and the parity computation
	// cost. Zero runs the whole engine.
	Ablation client.Ablation

	cfg     Config
	network *simnet.Network
	mgrs    []*mgrSlot
	servers []*ioServer

	mu      sync.Mutex
	clients []*rpc.Client
	nodes   int
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 server, got %d", cfg.Servers)
	}
	if cfg.Disk.PageSize == 0 {
		cfg.Disk.PageSize = 4096
	}
	cfg.ServerOpts.Clock = cfg.Clock
	c := &Cluster{
		cfg:     cfg,
		network: simnet.New(cfg.Clock, cfg.Net),
	}
	nMgr := cfg.Managers
	if nMgr < 1 {
		nMgr = 1
	}
	for i := 0; i < nMgr; i++ {
		c.mgrs = append(c.mgrs, &mgrSlot{})
	}
	for i := range c.mgrs {
		m, err := c.newManager(i)
		if err != nil {
			return nil, err
		}
		c.mgrs[i].mgr.Store(m)
	}
	if len(c.mgrs) > 1 {
		for i := range c.mgrs {
			c.wireManager(i, i != 0)
		}
	}
	cfg.ServerOpts.PageSize = cfg.Disk.PageSize
	for i := 0; i < cfg.Servers; i++ {
		slot := &ioServer{node: c.network.NewNode(fmt.Sprintf("iod%d", i))}
		disk := simdisk.New(cfg.Clock, cfg.Disk)
		slot.disk.Store(disk)
		slot.srv.Store(server.New(i, disk, cfg.ServerOpts))
		c.servers = append(c.servers, slot)
	}
	return c, nil
}

// Clock returns the cluster's time base (nil when untimed).
func (c *Cluster) Clock() *simtime.Clock { return c.cfg.Clock }

// Servers returns the number of I/O servers.
func (c *Cluster) Servers() int { return len(c.servers) }

// Server returns I/O server i's current instance (for stats inspection).
func (c *Cluster) Server(i int) *server.Server { return c.servers[i].srv.Load() }

// Manager returns the metadata manager (manager 0 of a replicated group).
func (c *Cluster) Manager() *meta.Manager { return c.mgrs[0].mgr.Load() }

// Managers returns the number of managers in the group.
func (c *Cluster) Managers() int { return len(c.mgrs) }

// ManagerAt returns manager i's current instance.
func (c *Cluster) ManagerAt(i int) *meta.Manager { return c.mgrs[i].mgr.Load() }

// newManager builds manager i: in-memory by default, persistent under
// Config.MetaDir when set.
func (c *Cluster) newManager(i int) (*meta.Manager, error) {
	if c.cfg.MetaDir == "" {
		return meta.New(c.cfg.Servers, nil), nil
	}
	dir := filepath.Join(c.cfg.MetaDir, fmt.Sprintf("mgr%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: manager %d dir: %w", i, err)
	}
	return meta.NewPersistent(c.cfg.Servers, nil, filepath.Join(dir, "meta.json"))
}

// wireManager joins manager i to the replicated group, reaching each peer
// through its gate so a killed manager is unreachable to replication too.
func (c *Cluster) wireManager(i int, standby bool) {
	peers := make([]meta.Caller, len(c.mgrs))
	for j := range peers {
		if j != i {
			peers[j] = directCaller{c.mgrHandler(j)}
		}
	}
	c.mgrs[i].mgr.Load().SetCluster(i, peers, standby)
}

// mgrHandler returns the gated rpc.Handler for manager slot i.
func (c *Cluster) mgrHandler(i int) rpc.Handler {
	slot := c.mgrs[i]
	return func(m wire.Msg) (wire.Msg, error) {
		if slot.down.Load() {
			return nil, ErrServerDown
		}
		return slot.mgr.Load().Handle(m)
	}
}

// KillManager makes manager i unreachable — to clients and to its peers'
// replication ships alike. With Config.MetaDir set this models kill -9:
// RestartManager then rebuilds the instance from its snapshot + WAL.
func (c *Cluster) KillManager(i int) { c.mgrs[i].down.Store(true) }

// RestartManager brings manager i back. Persistent managers are rebuilt
// from disk (snapshot + WAL replay, torn tail and all) and rejoin the
// group as a standby — even a former primary must not resume the role,
// since a newer epoch may have been won while it was dead; it catches up
// via replication from the current primary. In-memory managers keep their
// state (a partition heal rather than a process restart).
func (c *Cluster) RestartManager(i int) error {
	slot := c.mgrs[i]
	if c.cfg.MetaDir != "" {
		slot.mgr.Load().Close() //nolint:errcheck // dead process: state is on disk
		m, err := c.newManager(i)
		if err != nil {
			return err
		}
		slot.mgr.Store(m)
		if len(c.mgrs) > 1 {
			c.wireManager(i, true)
		}
	}
	slot.down.Store(false)
	return nil
}

// PromoteManager unconditionally promotes manager i to primary at a fresh
// epoch, fencing any prior primary.
func (c *Cluster) PromoteManager(i int) error { return c.mgrs[i].mgr.Load().Promote() }

// TryPromoteManager promotes manager i only if no lower-index manager
// answers a status probe (the deterministic promotion rule).
func (c *Cluster) TryPromoteManager(i int) (bool, error) {
	return c.mgrs[i].mgr.Load().TryPromote()
}

// ServerDisk returns I/O server i's modeled disk (for stats inspection).
func (c *Cluster) ServerDisk(i int) *simdisk.Disk { return c.servers[i].disk.Load() }

// handler returns the gated rpc.Handler for server slot i: the down flag
// and any injected faults apply before the server sees the request.
func (c *Cluster) handler(i int) rpc.Handler {
	slot := c.servers[i]
	return func(m wire.Msg) (wire.Msg, error) {
		if slot.down.Load() {
			return nil, ErrServerDown
		}
		if err := slot.applyFaults(m); err != nil {
			return nil, err
		}
		if slot.down.Load() {
			return nil, ErrServerDown
		}
		return slot.srv.Load().Handle(m)
	}
}

// Network returns the cluster's modeled interconnect; tests install simnet
// link faults and schedules through it.
func (c *Cluster) Network() *simnet.Network { return c.network }

// ServerNodeName returns server i's simnet node name, for addressing link
// faults.
func (c *Cluster) ServerNodeName(i int) string { return c.servers[i].node.Name() }

// PartitionServer cuts server i off: its simnet links drop in both
// directions. Heal with HealServer. Unlike StopServer, a partition is a
// network event — the server process keeps running.
func (c *Cluster) PartitionServer(i int) { c.network.Partition(c.servers[i].node.Name()) }

// HealServer reverses PartitionServer.
func (c *Cluster) HealServer(i int) { c.network.Heal(c.servers[i].node.Name()) }

// directCaller adapts an rpc.Handler to meta.Caller, for the managers'
// replication peers.
type directCaller struct{ h rpc.Handler }

func (d directCaller) Call(m wire.Msg) (wire.Msg, error) { return d.h(m) }

// dial serves h on one end of an in-memory pipe and returns the RPC client
// on the other, charging the simnet nodes local (the caller's) and remote
// (the handler's); nil nodes leave the link unmodeled. Close closes it.
func (c *Cluster) dial(h rpc.Handler, local, remote *simnet.Node) *rpc.Client {
	cEnd, sEnd := net.Pipe()
	go rpc.ServeConn(sEnd, h, remote, local) //nolint:errcheck
	rc := rpc.NewClient(cEnd, local, remote)
	c.mu.Lock()
	c.clients = append(c.clients, rc)
	c.mu.Unlock()
	return rc
}

// NewClient attaches a new client to the cluster: its own simulated NIC
// and an RPC connection to every server. Its connections to the managers
// are unmodeled (metadata traffic is not part of any modeled experiment).
func (c *Cluster) NewClient() *client.Client {
	c.mu.Lock()
	c.nodes++
	name := fmt.Sprintf("client%d", c.nodes)
	c.mu.Unlock()
	clientNode := c.network.NewNode(name)
	callers := make([]client.Caller, len(c.servers))
	for i, s := range c.servers {
		callers[i] = c.dial(c.handler(i), clientNode, s.node)
	}
	mgrCallers := make([]client.Caller, len(c.mgrs))
	for i := range c.mgrs {
		mgrCallers[i] = c.dial(c.mgrHandler(i), nil, nil)
	}
	cl := client.NewMulti(mgrCallers, callers)
	cl.SetAblation(c.Ablation)
	if c.cfg.Clock.Timed() {
		cl.SetModel(c.cfg.Clock, c.cfg.XORBandwidth, c.cfg.ClientRequestCPU)
	}
	return cl
}

// StopServer marks server i failed: all subsequent calls to it error.
func (c *Cluster) StopServer(i int) { c.servers[i].down.Store(true) }

// RestartServer brings server i back with its storage intact (a process
// restart, not a disk loss).
func (c *Cluster) RestartServer(i int) { c.servers[i].down.Store(false) }

// CrashServer kills server i's process: all subsequent calls error, and the
// in-RAM state (parity locks, lock queues, lease timers, overflow tables)
// is gone. The disk survives. RestartServer then completes the restart —
// the fresh instance reloads the intent journal, so stripes that were
// mid-update at the crash come back fail-stopped and awaiting replay.
// Contrast StopServer, which keeps the same instance (a partition-like
// outage with RAM intact).
func (c *Cluster) CrashServer(i int) {
	slot := c.servers[i]
	slot.down.Store(true)
	disk := slot.disk.Load()
	disk.DropCaches() // the page cache dies with the process
	slot.srv.Store(server.New(i, disk, c.cfg.ServerOpts))
}

// ReplaceServer brings server i back with a blank disk, modeling a disk
// replacement after a crash. The recovery machinery then rebuilds it.
func (c *Cluster) ReplaceServer(i int) {
	disk := simdisk.New(c.cfg.Clock, c.cfg.Disk)
	c.servers[i].disk.Store(disk)
	c.servers[i].srv.Store(server.New(i, disk, c.cfg.ServerOpts))
	c.servers[i].down.Store(false)
}

// TotalStorage sums all live servers' materialized bytes, du-style
// (Table 2's measurement: "the sum of the file sizes at the I/O servers").
func (c *Cluster) TotalStorage() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.srv.Load().Disk().AllocatedBytes()
	}
	return n
}

// DropAllCaches empties every server's page cache.
func (c *Cluster) DropAllCaches() {
	for _, s := range c.servers {
		s.srv.Load().Disk().DropCaches()
	}
}

// SyncAll flushes every server's dirty pages.
func (c *Cluster) SyncAll() {
	for _, s := range c.servers {
		s.srv.Load().Disk().SyncAll()
	}
}

// Close tears down all RPC connections to servers and managers and closes
// every manager (releasing persistent managers' WAL descriptors).
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rc := range c.clients {
		rc.Close() //nolint:errcheck
	}
	c.clients = nil
	for _, s := range c.mgrs {
		s.mgr.Load().Close() //nolint:errcheck
	}
}
