package cluster

import (
	"sync"
	"sync/atomic"

	"csar/internal/wire"
)

// Request-level fault injection for deterministic failure tests. A
// FaultPoint arms at a specific request — "the After-th WriteData to server
// 2" — independent of wall-clock timing, so scenarios like "server hangs
// mid-stripe" or "server dies holding a parity lock" reproduce exactly,
// under -race and -count=2 alike. It complements the simnet link faults:
// those model the network, these model a wedged or dying server process.

// FaultAction is what an armed fault does to a matching request.
type FaultAction int

const (
	// FaultHang blocks the request until Release, then fails it with
	// ErrServerDown — a wedged server only deadlines can detect.
	FaultHang FaultAction = iota
	// FaultDrop fails matching requests immediately with ErrServerDown
	// until Release — a crashed server with a fast-failing connection.
	FaultDrop
	// FaultBlackhole lets the server execute the request (side effects
	// happen: locks are granted, data lands) but discards the response and
	// fails the call with ErrServerDown — the lost-response case behind
	// every ghost parity lock.
	FaultBlackhole
	// FaultPause holds the request until Release, then lets it through —
	// a slow server, for parking a request while others overtake it.
	FaultPause
)

// FaultPoint describes where a fault arms.
type FaultPoint struct {
	// Server is the target server slot.
	Server int
	// Kind selects which requests count and trigger; zero matches any.
	Kind wire.Kind
	// After is how many matching requests pass through unharmed before the
	// fault triggers (0 = the first matching request).
	After int
	// Action is the fault's behavior once triggered.
	Action FaultAction
}

// InjectedFault is one armed fault; the test side of the handshake.
type InjectedFault struct {
	p    FaultPoint
	slot *ioServer

	skip      atomic.Int64 // matching requests still to let through
	triggered chan struct{}
	released  chan struct{}
	trigOnce  sync.Once
	relOnce   sync.Once
	hangDone  atomic.Bool // a request this fault hung has been failed
}

// Inject arms a fault on server p.Server. The returned handle reports when
// it triggers and releases it.
func (c *Cluster) Inject(p FaultPoint) *InjectedFault {
	f := &InjectedFault{
		p:         p,
		slot:      c.servers[p.Server],
		triggered: make(chan struct{}),
		released:  make(chan struct{}),
	}
	f.skip.Store(int64(p.After))
	f.slot.fmu.Lock()
	f.slot.faults = append(f.slot.faults, f)
	f.slot.fmu.Unlock()
	return f
}

// Triggered is closed when the fault has fired on its first request.
func (f *InjectedFault) Triggered() <-chan struct{} { return f.triggered }

// HangFailed reports whether a request this fault hung has been failed back
// to its caller — a point that happens before the caller sees the error.
func (f *InjectedFault) HangFailed() bool { return f.hangDone.Load() }

// Release disarms the fault: hung requests fail with ErrServerDown, paused
// ones go through, and subsequent requests pass through normally.
func (f *InjectedFault) Release() {
	f.relOnce.Do(func() {
		f.slot.fmu.Lock()
		kept := f.slot.faults[:0]
		for _, g := range f.slot.faults {
			if g != f {
				kept = append(kept, g)
			}
		}
		f.slot.faults = kept
		f.slot.fmu.Unlock()
		close(f.released)
	})
}

// applyFaults runs the slot's armed faults against one request; a non-nil
// error (always ErrServerDown) fails the call. Once triggered, a fault
// keeps matching until Release — retries of the doomed request fail too.
func (s *ioServer) applyFaults(m wire.Msg) error {
	s.fmu.Lock()
	var hit *InjectedFault
	for _, f := range s.faults {
		if f.p.Kind != 0 && f.p.Kind != m.Kind() {
			continue
		}
		if f.skip.Add(-1) >= 0 {
			continue
		}
		hit = f
		break
	}
	s.fmu.Unlock()
	if hit == nil {
		return nil
	}
	hit.trigOnce.Do(func() { close(hit.triggered) })
	switch hit.p.Action {
	case FaultHang:
		<-hit.released
		hit.hangDone.Store(true)
		return ErrServerDown
	case FaultPause:
		<-hit.released
		return nil
	case FaultBlackhole:
		// Execute for real, drop the result.
		s.srv.Load().Handle(m) //nolint:errcheck // response is being lost
		return ErrServerDown
	default: // FaultDrop
		return ErrServerDown
	}
}
