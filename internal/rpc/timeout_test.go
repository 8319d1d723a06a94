package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csar/internal/simnet"
	"csar/internal/wire"
)

func TestCallTimeoutExpiresAndConnectionSurvives(t *testing.T) {
	release := make(chan struct{})
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		if _, ok := req.(*wire.Ping); ok {
			<-release // wedged server
		}
		return &wire.OK{}, nil
	})

	start := time.Now()
	_, err := c.CallTraced(&wire.Ping{}, 0, 25*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrTimeout must wrap context.DeadlineExceeded for uniform classification")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not bound the call")
	}

	// Release the wedged handler: its late response must be dropped, not
	// misdelivered, and the connection must stay usable.
	close(release)
	resp, err := c.CallTraced(&wire.Health{}, 0, time.Second)
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("late response leaked into a later call: got %T", resp)
	}
}

func TestCallTimeoutCoversBlockedSend(t *testing.T) {
	// A hung modeled link blocks the send itself; the deadline must fire
	// anyway (the silent-loss failure mode only deadlines detect).
	n := simnet.New(nil, simnet.DefaultParams())
	cn, sn := n.NewNode("client"), n.NewNode("server")
	n.SetLinkFault("client", "server", simnet.LinkFault{Hang: true})
	t.Cleanup(n.ClearFaults)

	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(wire.Msg) (wire.Msg, error) { return &wire.OK{}, nil }, sn, cn) //nolint:errcheck
	c := NewClient(cEnd, cn, sn)
	t.Cleanup(func() { c.Close() })

	_, err := c.CallTraced(&wire.Ping{}, 0, 25*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}

	// Clearing the fault lets the stuck frame drain; the connection keeps
	// working.
	n.ClearFaults()
	if _, err := c.CallTraced(&wire.Ping{}, 0, time.Second); err != nil {
		t.Fatalf("call after link heal: %v", err)
	}
}

func TestSendErrorPropagates(t *testing.T) {
	// A dropped link fails the call immediately — no deadline needed — and
	// the error surfaces to the caller.
	n := simnet.New(nil, simnet.DefaultParams())
	cn, sn := n.NewNode("client"), n.NewNode("server")
	n.Partition("server")
	t.Cleanup(n.ClearFaults)

	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(wire.Msg) (wire.Msg, error) { return &wire.OK{}, nil }, sn, cn) //nolint:errcheck
	c := NewClient(cEnd, cn, sn)
	t.Cleanup(func() { c.Close() })

	if _, err := c.Call(&wire.Ping{}); !errors.Is(err, simnet.ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	n.Heal("server")
	if _, err := c.Call(&wire.Ping{}); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestDroppedResponseHitsDeadline(t *testing.T) {
	// The server executes the request but its response frame is lost on the
	// modeled link (the ghost-lock scenario's transport); only the client's
	// deadline reports it.
	n := simnet.New(nil, simnet.DefaultParams())
	cn, sn := n.NewNode("client"), n.NewNode("server")
	n.SetLinkFault("server", "client", simnet.LinkFault{Drop: true})
	t.Cleanup(n.ClearFaults)

	handled := make(chan struct{}, 8)
	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(wire.Msg) (wire.Msg, error) { //nolint:errcheck
		handled <- struct{}{}
		return &wire.OK{}, nil
	}, sn, cn)
	c := NewClient(cEnd, cn, sn)
	t.Cleanup(func() { c.Close() })

	_, err := c.CallTraced(&wire.Ping{}, 0, 25*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	select {
	case <-handled:
		// The side effect happened even though the call failed — exactly the
		// asymmetry the client's idempotency rules exist for.
	case <-time.After(2 * time.Second):
		t.Fatal("handler never ran")
	}
}

// TestAbandonedSendOwnsItsPayload: a write sent straight from the caller's
// buffer needs no copy to survive a deadline. The link hangs, the deadline
// fires, the caller scribbles over its buffer at once, and the link heals:
// the server applies nothing — the frame never left — and the connection
// still works.
func TestAbandonedSendOwnsItsPayload(t *testing.T) {
	n := simnet.New(nil, simnet.DefaultParams())
	cn, sn := n.NewNode("client"), n.NewNode("server")
	n.SetLinkFault("client", "server", simnet.LinkFault{Hang: true})
	t.Cleanup(n.ClearFaults)

	const size = 64 << 10
	applied := make(chan *wire.WriteData, 1)
	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(req wire.Msg) (wire.Msg, error) { //nolint:errcheck
		if w, ok := req.(*wire.WriteData); ok {
			applied <- w
		}
		return &wire.OK{}, nil
	}, sn, cn)
	c := NewClient(cEnd, cn, sn)
	t.Cleanup(func() { c.Close() })

	caller := patternOf(size, 7)
	m := &wire.WriteData{
		File:  wire.FileRef{ID: 7},
		Spans: []wire.Span{{Off: 0, Len: size}},
		From:  [][]byte{caller[:size/3], caller[size/3:]},
	}
	if _, err := c.CallTraced(m, 0, 25*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	for i := range caller {
		caller[i] = 0xFF
	}

	n.ClearFaults()
	if _, err := c.CallTraced(&wire.Ping{}, 0, 5*time.Second); err != nil {
		t.Fatalf("call after the link healed: %v", err)
	}
	select { // a frame read before the ping may still be in its handler
	case w := <-applied:
		t.Fatalf("the timed-out write reached the server (%d bytes)", len(w.Data))
	case <-time.After(100 * time.Millisecond):
	}
}

// stallConn is the client end of a connection whose request stream stalls
// at byte at, counted from the first byte written: the bytes before it go
// through, then the write that reaches it fails at once (fail) or parks
// until release, which lets the rest through, or Close, which fails it.
// inside reports a write in progress; a write that reads the caller's bytes
// after the test set returned is recorded in late.
type stallConn struct {
	net.Conn
	at   int
	fail bool
	off  int // bytes let through; writers are serialized by the client

	parked, release, closed chan struct{}
	parkOnce, closeOnce     sync.Once
	inside, returned, late  atomic.Bool
}

var errStall = errors.New("stallConn: scripted write failure")

func newStallConn(conn net.Conn, at int, fail bool) *stallConn {
	return &stallConn{Conn: conn, at: at, fail: fail,
		parked: make(chan struct{}), release: make(chan struct{}), closed: make(chan struct{})}
}

func (s *stallConn) Write(p []byte) (int, error) {
	s.inside.Store(true)
	defer s.inside.Store(false)
	s.late.Store(s.late.Load() || s.returned.Load())
	n := 0
	if s.off < s.at {
		k := min(len(p), s.at-s.off)
		m, err := s.Conn.Write(p[:k])
		n, s.off = m, s.off+m
		if err != nil || k == len(p) {
			return n, err
		}
	}
	if s.fail {
		return n, errStall
	}
	s.parkOnce.Do(func() { close(s.parked) })
	select {
	case <-s.closed:
		return n, net.ErrClosed
	case <-s.release:
	}
	s.late.Store(s.late.Load() || s.returned.Load())
	m, err := s.Conn.Write(p[n:])
	s.off += m
	return n + m, err
}

func (s *stallConn) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	return s.Conn.Close()
}

// settle waits until no write is in progress, so that a write the test has
// just let go has done whatever it was going to do.
func (s *stallConn) settle() {
	for deadline := time.Now().Add(2 * time.Second); s.inside.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// writeLog serves a connection and records every WriteData it applies, a
// copy of its payload by file ID; done is closed when ServeConn returns.
type writeLog struct {
	mu      sync.Mutex
	applied map[uint64][]byte
	done    chan struct{}
}

func serveWrites(conn net.Conn) *writeLog {
	l := &writeLog{applied: map[uint64][]byte{}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		ServeConn(conn, func(req wire.Msg) (wire.Msg, error) { //nolint:errcheck // ends with conn
			if w, ok := req.(*wire.WriteData); ok {
				l.mu.Lock()
				l.applied[w.File.ID] = bytes.Clone(w.Data)
				l.mu.Unlock()
			}
			return &wire.OK{}, nil
		}, nil, nil)
	}()
	return l
}

func (l *writeLog) get(id uint64) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.applied[id]
	return b, ok
}

// writeFrom is a WriteData of file id sent straight from p, in two pieces.
func writeFrom(id uint64, p []byte) *wire.WriteData {
	return &wire.WriteData{
		File:  wire.FileRef{ID: id},
		Spans: []wire.Span{{Off: 0, Len: int64(len(p))}},
		From:  [][]byte{p[:len(p)/3], p[len(p)/3:]},
	}
}

// frameLen is the number of bytes m's frame puts on the wire.
func frameLen(m wire.Msg) int {
	fr := wire.MarshalFrame(m, 0)
	defer fr.Free()
	return prefixLen + fr.BodyLen()
}

// TestSendDeadlineMidWrite holds the send rule: no call returns while its
// frame is being written, so a write goes out from the caller's own bytes.
//
// mid-payload: the connection parks partway through a WriteData payload
// sent from the caller's slice. The deadline cannot cut the frame off: the
// call returns ErrTimeout only once its write has returned — the connection
// closed under the stuck write — and a sentinel the caller then writes
// into its slice never reaches the server, which applies nothing.
//
// queued: a call waiting behind that parked writer has written no byte, so
// its own deadline abandons it at once, the connection intact. Its frame
// never goes out, while the parked write, let through, is applied whole.
func TestSendDeadlineMidWrite(t *testing.T) {
	const size = 48 << 10
	t.Run("mid-payload", func(t *testing.T) {
		cEnd, sEnd := net.Pipe()
		log := serveWrites(sEnd)
		p := patternOf(size, 3)
		req := writeFrom(1, p)
		spy := newStallConn(cEnd, frameLen(req)-size/2, false)
		c := NewClient(spy, nil, nil)
		t.Cleanup(func() { c.Close() })

		_, err := c.CallTraced(req, 0, 25*time.Millisecond)
		spy.returned.Store(true)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if spy.inside.Load() {
			t.Fatal("the call returned while its frame was being written")
		}
		if !c.Closed() {
			t.Fatal("the connection under a stuck write was left open")
		}
		for i := range p {
			p[i] = landingSentinel
		}
		close(spy.release)
		spy.settle()
		if spy.late.Load() {
			t.Fatal("the caller's bytes were read after the call returned")
		}
		<-log.done
		if b, ok := log.get(1); ok {
			t.Fatalf("the server applied a write of %d bytes from a cut-off frame", len(b))
		}
	})

	t.Run("queued", func(t *testing.T) {
		cEnd, sEnd := net.Pipe()
		log := serveWrites(sEnd)
		first, second := patternOf(size, 5), patternOf(size, 9)
		want := bytes.Clone(first)
		spy := newStallConn(cEnd, frameLen(writeFrom(1, first))-size/2, false)
		c := NewClient(spy, nil, nil)
		t.Cleanup(func() { c.Close() })

		firstDone := make(chan error, 1)
		go func() {
			_, err := c.Call(writeFrom(1, first))
			firstDone <- err
		}()
		<-spy.parked
		start := time.Now()
		_, err := c.CallTraced(writeFrom(2, second), 0, 25*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("queued call: err = %v, want ErrTimeout", err)
		}
		if waited := time.Since(start); waited >= writeGrace/2 {
			t.Fatalf("the queued call waited %v: it was not held to its own deadline", waited)
		}
		if c.Closed() || !spy.inside.Load() {
			t.Fatalf("after the queued call's deadline: closed %v, parked writer inside %v; want open and still parked", c.Closed(), spy.inside.Load())
		}
		for i := range second {
			second[i] = landingSentinel
		}
		close(spy.release)
		if err := <-firstDone; err != nil {
			t.Fatalf("the parked write, let through: %v", err)
		}
		if _, err := c.Call(&wire.Ping{}); err != nil {
			t.Fatalf("call after the parked write: %v", err)
		}
		if b, _ := log.get(1); !bytes.Equal(b, want) {
			t.Fatal("the parked write was not applied whole")
		}
		if b, ok := log.get(2); ok {
			t.Fatalf("the abandoned queued write reached the server (%d bytes)", len(b))
		}
	})
}
