package simnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrLinkDown is returned by Node.Send when the directed link between the
// two nodes carries a Drop fault (or either side of a partition).
var ErrLinkDown = errors.New("simnet: link down")

// ErrDeadline is returned by Node.Send when the sender's deadline passes
// before the message could go: its link was still hung, or its modeled
// transfer would have ended later. It wraps context.DeadlineExceeded.
var ErrDeadline = fmt.Errorf("simnet: send deadline passed (%w)", context.DeadlineExceeded)

// Wildcard matches any node name in a fault's from/to position.
const Wildcard = "*"

// LinkFault describes what happens to messages on one directed link.
// Exactly one of Drop and Hang is normally set; ExtraLatency may accompany
// either or stand alone.
type LinkFault struct {
	// Drop makes every Send on the link fail immediately with ErrLinkDown —
	// the TCP-reset / route-lost failure mode.
	Drop bool
	// Hang blocks every Send on the link until the fault is cleared — the
	// silent-loss failure mode that only deadlines can detect. When the
	// fault is cleared, hung sends re-evaluate the fault table (a hang
	// replaced by a drop fails them; a cleared link lets them through).
	Hang bool
	// ExtraLatency adds a per-message simulated delay on top of the modeled
	// transfer time (ignored on untimed networks, like all modeled delays).
	ExtraLatency time.Duration
}

// faultEntry is one installed fault; cleared is closed when the entry is
// removed or replaced so hung senders wake and re-evaluate.
type faultEntry struct {
	f       LinkFault
	cleared chan struct{}
}

// faultTable holds the directed-link fault set of a Network. Lookups check
// exact (from,to) first, then (from,*), (*,to), (*,*).
type faultTable struct {
	mu      sync.Mutex
	entries map[[2]string]*faultEntry
}

func (t *faultTable) set(from, to string, f LinkFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		t.entries = make(map[[2]string]*faultEntry)
	}
	key := [2]string{from, to}
	if old := t.entries[key]; old != nil {
		close(old.cleared)
	}
	t.entries[key] = &faultEntry{f: f, cleared: make(chan struct{})}
}

func (t *faultTable) clear(from, to string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]string{from, to}
	if old := t.entries[key]; old != nil {
		close(old.cleared)
		delete(t.entries, key)
	}
}

func (t *faultTable) clearAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, e := range t.entries {
		close(e.cleared)
		delete(t.entries, key)
	}
}

func (t *faultTable) lookup(from, to string) *faultEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		return nil
	}
	for _, key := range [][2]string{{from, to}, {from, Wildcard}, {Wildcard, to}, {Wildcard, Wildcard}} {
		if e := t.entries[key]; e != nil {
			return e
		}
	}
	return nil
}

// SetLinkFault installs (or replaces) the fault on the directed link
// from→to. Either name may be Wildcard. Faults apply on untimed networks
// too: correctness tests inject drops and hangs without modeling time.
func (n *Network) SetLinkFault(from, to string, f LinkFault) { n.faults.set(from, to, f) }

// ClearLinkFault removes the fault on the directed link from→to, waking any
// sends hung on it.
func (n *Network) ClearLinkFault(from, to string) { n.faults.clear(from, to) }

// ClearFaults removes every installed fault.
func (n *Network) ClearFaults() { n.faults.clearAll() }

// Partition isolates a node: messages to and from it fail with ErrLinkDown.
func (n *Network) Partition(name string) {
	n.faults.set(name, Wildcard, LinkFault{Drop: true})
	n.faults.set(Wildcard, name, LinkFault{Drop: true})
}

// Heal removes the partition installed for a node by Partition.
func (n *Network) Heal(name string) {
	n.faults.clear(name, Wildcard)
	n.faults.clear(Wildcard, name)
}

// FaultStep is one entry of a deterministic fault schedule: at simulated
// offset At from the start of RunSchedule, install (or, with Clear, remove)
// the fault on the directed link From→To.
type FaultStep struct {
	At       time.Duration
	From, To string
	Clear    bool
	Fault    LinkFault
}

// RunSchedule applies the steps in order, each at its simulated-time offset
// from the call (converted to wall time by the network's clock; on an
// untimed network all steps apply immediately, still in order). It returns
// a channel closed after the last step, so tests can await the full
// schedule. The schedule is deterministic in the sense that matters: the
// sequence of fault-table states is exactly the steps in order, and on a
// timed network the offsets land at the modeled instants.
func (n *Network) RunSchedule(steps []FaultStep) <-chan struct{} {
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for _, s := range steps {
			if n.clock.Timed() {
				target := start.Add(n.clock.Wall(s.At))
				if d := time.Until(target); d > 0 {
					time.Sleep(d)
				}
			}
			if s.Clear {
				n.ClearLinkFault(s.From, s.To)
			} else {
				n.SetLinkFault(s.From, s.To, s.Fault)
			}
		}
	}()
	return done
}

// applyFaults enforces the fault table for one message from→to: dropped
// links error, hung links block until cleared (then re-evaluate) or until
// the deadline, if there is one, and extra latency is charged on timed
// networks.
func (n *Network) applyFaults(from, to string, deadline time.Time) error {
	for {
		e := n.faults.lookup(from, to)
		if e == nil {
			return nil
		}
		if e.f.Drop {
			return fmt.Errorf("%w (%s -> %s)", ErrLinkDown, from, to)
		}
		if e.f.Hang {
			var expired <-chan time.Time // nil without a deadline: wait for the clear
			if !deadline.IsZero() {
				expired = time.After(time.Until(deadline))
			}
			select {
			case <-e.cleared:
				continue
			case <-expired:
				return ErrDeadline
			}
		}
		if e.f.ExtraLatency > 0 {
			n.clock.Sleep(e.f.ExtraLatency)
		}
		return nil
	}
}
