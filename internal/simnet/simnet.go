// Package simnet models the cluster interconnect: every node owns a
// full-duplex NIC with finite per-direction bandwidth, and messages between
// two nodes pay the maximum of the sender's outbound and the receiver's
// inbound transfer time, plus a one-way latency.
//
// The single effect that matters for the paper's figures is client NIC
// saturation: a RAID1 client pushes twice the bytes of a RAID0 client, so
// its link becomes the bottleneck and write bandwidth flattens near half of
// RAID0 as I/O servers are added (Figure 4a). That emerges directly from
// the per-node outbound limiter.
package simnet

import (
	"time"

	"csar/internal/simtime"
)

// Params configures the interconnect model.
type Params struct {
	// Latency is the one-way message latency in simulated time.
	Latency time.Duration
	// BandwidthBPS is the per-direction NIC bandwidth of every node in
	// bytes per simulated second.
	BandwidthBPS float64
}

// DefaultParams models the paper's network path: Myrinet 1.3 Gb/s links
// (about 160 MB/s per direction) driven through the kernel TCP stack, as
// PVFS uses sockets — per-message latency is therefore in the
// hundred-microsecond range, not raw-Myrinet microseconds.
func DefaultParams() Params {
	return Params{
		Latency:      150 * time.Microsecond,
		BandwidthBPS: 160e6,
	}
}

// Network is a set of nodes sharing one timing model and one fault table
// (see faults.go): deterministic per-link drop, hang, latency and partition
// faults drive the failover tests.
type Network struct {
	clock  *simtime.Clock
	params Params
	faults faultTable
}

// New creates a network on the given clock. An untimed clock produces a
// network with no modeled delays.
func New(clock *simtime.Clock, p Params) *Network {
	return &Network{clock: clock, params: p}
}

// Clock returns the network's time base.
func (n *Network) Clock() *simtime.Clock { return n.clock }

// Node is one machine's network attachment.
type Node struct {
	net     *Network
	name    string
	in, out *simtime.Limiter
}

// NewNode attaches a named node to the network.
func (n *Network) NewNode(name string) *Node {
	return &Node{
		net:  n,
		name: name,
		in:   simtime.NewLimiter(n.clock, n.params.BandwidthBPS),
		out:  simtime.NewLimiter(n.clock, n.params.BandwidthBPS),
	}
}

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Send charges the transfer of n bytes from nd to dst and blocks until the
// modeled transfer completes: both NIC directions are reserved concurrently
// and the call sleeps until the later of the two, plus one-way latency.
//
// Link faults apply first, even on untimed networks: a dropped link returns
// ErrLinkDown, a hung link blocks until the fault clears, and extra latency
// is charged before the transfer. A non-zero deadline bounds the wait: a
// link still hung at the deadline, or a transfer that would end after it,
// returns ErrDeadline then, the message not sent.
func (nd *Node) Send(dst *Node, n int64, deadline time.Time) error {
	if nd == nil || dst == nil {
		return nil
	}
	if err := nd.net.applyFaults(nd.name, dst.name, deadline); err != nil {
		return err
	}
	if !nd.net.clock.Timed() {
		return nil
	}
	tOut := nd.out.Reserve(n)
	tIn := dst.in.Reserve(n)
	target := tOut
	if tIn.After(target) {
		target = tIn
	}
	if target.IsZero() {
		target = time.Now()
	}
	// Fold the one-way latency into the same wall-clock deadline: one
	// precise sleep instead of two, so host timer granularity is paid at
	// most once per message.
	target = target.Add(nd.net.clock.Wall(nd.net.params.Latency))
	if !deadline.IsZero() && target.After(deadline) {
		simtime.SleepUntil(deadline)
		return ErrDeadline
	}
	simtime.SleepUntil(target)
	return nil
}
