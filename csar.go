// Package csar is a Go implementation of CSAR — Cluster Storage with
// Adaptive Redundancy — the striped cluster file system with hybrid
// RAID1/RAID5 redundancy described in:
//
//	Manoj Pillai and Mario Lauria. "A High Performance Redundancy Scheme
//	for Cluster File Systems". IEEE CLUSTER 2003.
//
// CSAR extends a PVFS-style striped file system (manager + I/O servers +
// direct client/server data paths) with five redundancy schemes:
//
//   - Raid0: plain striping, no redundancy (stock PVFS);
//   - Raid1: striped block mirroring onto the next server;
//   - Raid5: rotating parity with a distributed parity lock for
//     partial-stripe consistency;
//   - Hybrid: the paper's contribution — per-write adaptive redundancy
//     that stores full stripes as RAID5 and partial-stripe portions as
//     mirrored writes into an overflow region, giving RAID1 performance
//     for small writes and RAID5 efficiency for large ones;
//   - ReedSolomon: RS(k, m) erasure coding over GF(256) — m rotating
//     parity units per stripe, any-k-of-(k+m) reconstruction, tolerating
//     m simultaneous server failures.
//
// A scheme names a layout shape — m parity units, a mirror, an overflow
// region — resolved one way everywhere: RAID5 is RS(k, 1), Hybrid is RAID5
// plus overflow. The paper's two RAID5 ablations (Figures 3 and 4a) are not
// schemes but a switch of csar-bench's in-process cluster.
//
// # Quick start
//
//	cluster, _ := csar.NewCluster(csar.ClusterOptions{Servers: 5})
//	defer cluster.Close()
//	client := cluster.NewClient()
//	f, _ := client.Create("data", csar.FileOptions{Scheme: csar.Hybrid})
//	f.WriteAt(payload, 0)
//	f.Sync()
//
// Clusters can run untimed (pure functionality) or with the performance
// model enabled (ClusterOptions.Model), which reproduces the bandwidth
// behaviour of the paper's testbed: per-node NIC limits, disk seek and
// transfer costs, and a server page cache with the Linux partial-block
// write behaviour of Section 5.2.
package csar

import (
	"sync"
	"time"

	"csar/internal/cluster"
	"csar/internal/simdisk"
	"csar/internal/simnet"
	"csar/internal/simtime"
	"csar/internal/wire"
)

// Scheme selects a redundancy scheme.
type Scheme = wire.Scheme

// The redundancy schemes. ReedSolomon generalizes Raid5's single XOR parity
// to RS(k, m) erasure coding over GF(256), tolerating
// FileOptions.ParityUnits simultaneous failures.
const (
	Raid0       = wire.Raid0
	Raid1       = wire.Raid1
	Raid5       = wire.Raid5
	Hybrid      = wire.Hybrid
	ReedSolomon = wire.ReedSolomon
)

// ParseScheme converts a scheme name to a Scheme; SchemeNames lists the
// accepted names.
func ParseScheme(name string) (Scheme, error) { return wire.ParseScheme(name) }

// SchemeNames returns every scheme's parseable name, in scheme order.
func SchemeNames() []string { return wire.SchemeNames() }

// Model configures the performance model of an in-process cluster.
type Model struct {
	// ScalePerSimSecond is the wall-clock duration of one simulated
	// second. Zero disables all timing (functional mode).
	ScalePerSimSecond time.Duration
	// NICBandwidth is each node's per-direction network bandwidth in
	// bytes per simulated second (default: 160 MB/s, Myrinet-class).
	NICBandwidth float64
	// NetLatency is the one-way message latency (default 20µs).
	NetLatency time.Duration
	// DiskBandwidth is each server disk's transfer rate in bytes per
	// simulated second (default 70 MB/s).
	DiskBandwidth float64
	// DiskSeek is the per-access positioning time (default 500µs).
	DiskSeek time.Duration
	// ServerCacheBytes is each server's page cache capacity
	// (default 256 MiB; the paper's nodes had 1 GiB of RAM).
	ServerCacheBytes int64
	// PageSize is the local file system block size (default 4 KiB).
	PageSize int
	// XORBandwidth is the clients' parity-computation throughput in bytes
	// per simulated second (default 2 GB/s, calibrated so that parity
	// computation costs about 8% of a full-stripe RAID5 write, the
	// RAID5-npc gap of Figure 4a).
	XORBandwidth float64
	// ServerRequestCPU is the I/O daemon's per-request processing cost,
	// charged serially as in PVFS's single-threaded iod event loop
	// (default 1ms — a 1 GHz Pentium III iod handling a socket request).
	ServerRequestCPU time.Duration
	// ClientRequestCPU is the client-side cost of issuing one I/O-server
	// request — the PVFS library, kernel and TCP path (default 600µs).
	ClientRequestCPU time.Duration
}

// DefaultModel returns the testbed-like model parameters at the given time
// scale.
func DefaultModel(scale time.Duration) Model {
	return Model{
		ScalePerSimSecond: scale,
		NICBandwidth:      simnet.DefaultParams().BandwidthBPS,
		NetLatency:        simnet.DefaultParams().Latency,
		DiskBandwidth:     simdisk.DefaultParams().ReadBW,
		DiskSeek:          simdisk.DefaultParams().SeekTime,
		ServerCacheBytes:  simdisk.DefaultParams().CacheBytes,
		PageSize:          simdisk.DefaultParams().PageSize,
		XORBandwidth:      2e9,
		ServerRequestCPU:  time.Millisecond,
		ClientRequestCPU:  600 * time.Microsecond,
	}
}

// ClusterOptions configures an in-process cluster.
type ClusterOptions struct {
	// Servers is the number of I/O servers (required, >= 1; parity
	// schemes need >= 3).
	Servers int
	// Model enables and configures the performance model. The zero value
	// runs untimed; a non-zero ScalePerSimSecond charges the simulated
	// NICs and disks in simulated time. Either way, every call goes
	// through the full RPC stack over in-memory connections.
	Model Model
	// WriteBuffering toggles the Section 5.2 server-side write buffering
	// fix. Nil means enabled (the paper runs all experiments with it).
	WriteBuffering *bool
}

// Cluster is an in-process CSAR deployment.
type Cluster struct {
	inner *cluster.Cluster
	clock *simtime.Clock

	mu      sync.Mutex
	clients []*Client
}

// NewCluster starts a cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	cfg := cluster.DefaultConfig(opts.Servers)
	var clock *simtime.Clock
	if opts.Model.ScalePerSimSecond > 0 {
		m := opts.Model
		def := DefaultModel(m.ScalePerSimSecond)
		if m.NICBandwidth == 0 {
			m.NICBandwidth = def.NICBandwidth
		}
		if m.NetLatency == 0 {
			m.NetLatency = def.NetLatency
		}
		if m.DiskBandwidth == 0 {
			m.DiskBandwidth = def.DiskBandwidth
		}
		if m.DiskSeek == 0 {
			m.DiskSeek = def.DiskSeek
		}
		if m.ServerCacheBytes == 0 {
			m.ServerCacheBytes = def.ServerCacheBytes
		}
		if m.PageSize == 0 {
			m.PageSize = def.PageSize
		}
		if m.XORBandwidth == 0 {
			m.XORBandwidth = def.XORBandwidth
		}
		if m.ServerRequestCPU == 0 {
			m.ServerRequestCPU = def.ServerRequestCPU
		}
		if m.ClientRequestCPU == 0 {
			m.ClientRequestCPU = def.ClientRequestCPU
		}
		clock = &simtime.Clock{Scale: m.ScalePerSimSecond}
		cfg.Clock = clock
		cfg.XORBandwidth = m.XORBandwidth
		cfg.ServerOpts.RequestCPU = m.ServerRequestCPU
		cfg.ClientRequestCPU = m.ClientRequestCPU
		cfg.Net = simnet.Params{Latency: m.NetLatency, BandwidthBPS: m.NICBandwidth}
		cfg.Disk = simdisk.Params{
			PageSize:   m.PageSize,
			CacheBytes: m.ServerCacheBytes,
			SeekTime:   m.DiskSeek,
			ReadBW:     m.DiskBandwidth,
			WriteBW:    m.DiskBandwidth,
		}
	} else if opts.Model.PageSize != 0 {
		cfg.Disk.PageSize = opts.Model.PageSize
	}
	if opts.WriteBuffering != nil {
		cfg.ServerOpts.WriteBuffering = *opts.WriteBuffering
	}
	inner, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, clock: clock}, nil
}

// Servers returns the number of I/O servers.
func (c *Cluster) Servers() int { return c.inner.Servers() }

// NewClient attaches a new client (its own NIC under the performance
// model).
func (c *Cluster) NewClient() *Client {
	cl := &Client{inner: c.inner.NewClient()}
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl
}

// ClientStats merges the observability snapshots of every client this
// cluster has handed out: one view of op latencies and counters across the
// whole run, however many clients the workload used.
func (c *Cluster) ClientStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := make([]Stats, len(c.clients))
	for i, cl := range c.clients {
		snaps[i] = cl.Stats()
	}
	return MergeStats(snaps...)
}

// StopServer simulates the failure of server i: all requests to it fail
// until it is restarted or replaced.
func (c *Cluster) StopServer(i int) { c.inner.StopServer(i) }

// RestartServer brings a stopped server back with its storage intact.
func (c *Cluster) RestartServer(i int) { c.inner.RestartServer(i) }

// ReplaceServer swaps server i for a blank one (a new disk after a crash);
// use Client.Rebuild to reconstruct its contents.
func (c *Cluster) ReplaceServer(i int) { c.inner.ReplaceServer(i) }

// TotalStorage sums the bytes stored on all servers (Table 2's metric).
func (c *Cluster) TotalStorage() int64 { return c.inner.TotalStorage() }

// DropCaches empties every server's page cache, as the paper does between
// the initial-write and overwrite phases of its experiments.
func (c *Cluster) DropCaches() { c.inner.DropAllCaches() }

// ServerDiskStats returns the modeled disk counters of server i (physical
// reads/writes, cache hits/misses, forced partial-page reads).
func (c *Cluster) ServerDiskStats(i int) simdisk.Stats {
	return c.inner.ServerDisk(i).Stats()
}

// SimElapsed converts wall time since start into simulated time under the
// cluster's model; it returns zero for untimed clusters.
func (c *Cluster) SimElapsed(start time.Time) time.Duration {
	return c.clock.SimSince(start)
}

// Timed reports whether the performance model is enabled.
func (c *Cluster) Timed() bool { return c.clock.Timed() }

// ModelDelay blocks for the given simulated duration under the cluster's
// model (a no-op when untimed). Workload generators use it for costs
// outside the file system proper, such as the PVFS kernel-module crossing
// overhead in the Hartree-Fock experiment.
func (c *Cluster) ModelDelay(sim time.Duration) { c.clock.Sleep(sim) }

// Close tears down the cluster's connections.
func (c *Cluster) Close() { c.inner.Close() }

// DefaultStripeUnit is the stripe unit used when FileOptions does not set
// one: 64 KiB, PVFS's default stripe size.
const DefaultStripeUnit = 64 << 10

// FileOptions configures a new file.
type FileOptions struct {
	// Servers is the number of I/O servers to stripe over; zero means all.
	Servers int
	// StripeUnit is the stripe unit size in bytes (default 64 KiB).
	StripeUnit int64
	// Scheme is the redundancy scheme (default Raid0).
	Scheme Scheme
	// ParityUnits is the number of parity units per stripe for the
	// ReedSolomon scheme — the m of RS(k, m), with k = Servers - m data
	// units. Zero means 2 (double-fault tolerance). Other schemes reject a
	// non-zero value.
	ParityUnits int
}

// ServerRequests returns the number of requests I/O server i has handled.
func (c *Cluster) ServerRequests(i int) int64 {
	return c.inner.Server(i).Requests()
}

// CrashServer kills server i's process: RAM state (parity locks, lease
// timers) is lost, the disk survives. RestartServer completes the restart;
// the fresh instance reloads its stripe intent journal, so stripes that
// were mid-update come back fail-stopped awaiting Client.ReplayIntents.
func (c *Cluster) CrashServer(i int) { c.inner.CrashServer(i) }

// Internal returns the underlying cluster; the test and benchmark
// harnesses in this repository use it, applications should not.
func (c *Cluster) Internal() *cluster.Cluster { return c.inner }
