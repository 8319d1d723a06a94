package csar

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"csar/internal/rpc"
	"csar/internal/wire"
)

// A server that is down must not wedge or abort the caller — its calls fail
// with an unavailability-class error — and once something is listening again
// the same caller must reconnect on its own, because that is what the
// circuit breaker's re-admission probe rides on.
func TestRedialCallerFailsUnavailableThenRecovers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening: the address is known-dead

	rc := &redialCaller{addr: addr}
	if _, err := rc.Call(&wire.Ping{}); err == nil {
		t.Fatal("call to a dead server succeeded")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go func() {
		for {
			conn, err := ln2.Accept()
			if err != nil {
				return
			}
			go rpc.ServeConn(conn, func(wire.Msg) (wire.Msg, error) {
				return &wire.OK{}, nil
			}, nil, nil) //nolint:errcheck
		}
	}()

	if _, err := rc.Call(&wire.Ping{}); err != nil {
		t.Fatalf("redial after the server came back: %v", err)
	}
}

// stallConn is a server connection that stops writing halfway through the
// first bulk payload it is asked to send, until stop closes: a response
// that hangs mid-frame after its head is on the wire. Embedding the net.Conn
// interface, not the *net.TCPConn, keeps net.Buffers writing one buffer at
// a time through Write.
type stallConn struct {
	net.Conn
	stop <-chan struct{}
}

func (c stallConn) Write(p []byte) (int, error) {
	if len(p) < 32<<10 {
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	<-c.stop
	return n, net.ErrClosed
}

// A read whose response stalls after it began landing in the caller's
// buffer times out by closing its connection. The next call through the
// same pool slot must redial and succeed at once — not fail first on the
// connection the deadline closed.
func TestRedialAfterLandingDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	const size = 64 << 10
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1) == 1 {
				conn = stallConn{conn, stop}
			}
			go rpc.ServeConn(conn, func(wire.Msg) (wire.Msg, error) { //nolint:errcheck
				return &wire.ReadResp{Data: want}, nil
			}, nil, nil)
		}
	}()

	rc := newRedialCaller(ln.Addr().String(), 1)
	defer rc.Close()
	p := make([]byte, size)
	read := &wire.Read{Into: [][]byte{p[:size/4], p[size/4:]}}
	if _, err := rc.CallTraced(read, 0, 200*time.Millisecond); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("stalled read: err = %v, want ErrTimeout", err)
	}
	if !bytes.Equal(p[:size/2], want[:size/2]) {
		t.Fatal("the stalled response's first half never landed: the deadline did not cut off a landing")
	}
	clear(p)
	resp, err := rc.CallTraced(read, 0, 5*time.Second)
	if err != nil {
		t.Fatalf("first call after the cut-off landing: %v", err)
	}
	if rr := resp.(*wire.ReadResp); !rr.Landed() || !bytes.Equal(p, want) {
		t.Fatalf("read after redial: landed %v, bytes intact %v", rr.Landed(), bytes.Equal(p, want))
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2: the cut-off one and its redial", n)
	}
}
