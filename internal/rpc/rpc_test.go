package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csar/internal/simnet"
	"csar/internal/simtime"
	"csar/internal/wire"
)

// startTCPPair wires a client to a handler over loopback TCP.
func startTCPPair(tb testing.TB, h Handler) *Client {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	sConn, err := ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	go ServeConn(sConn, h, nil, nil) //nolint:errcheck
	c := NewClient(conn, nil, nil)
	tb.Cleanup(func() { c.Close() })
	return c
}

// startPair wires a client to a handler over an in-process connection.
func startPair(t *testing.T, h Handler) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, h, nil, nil) //nolint:errcheck
	c := NewClient(cEnd, nil, nil)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCallRoundTrip(t *testing.T) {
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		if _, ok := req.(*wire.Ping); ok {
			return &wire.OK{}, nil
		}
		return nil, errors.New("unexpected message")
	})
	resp, err := c.Call(&wire.Ping{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("resp = %T", resp)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		return nil, errors.New("no such file")
	})
	_, err := c.Call(&wire.Open{Name: "x"})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Fatalf("err = %v", err)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		panic("kaboom")
	})
	_, err := c.Call(&wire.Ping{})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives a panicking handler... subsequent calls work
	// because the panic is confined to the request goroutine.
	_, err = c.Call(&wire.Ping{})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("second call err = %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		o := req.(*wire.Open)
		// Vary response latency so completions interleave out of order.
		if len(o.Name)%2 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return &wire.ListResp{Names: []string{o.Name}}, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := strings.Repeat("x", i+1)
			resp, err := c.Call(&wire.Open{Name: name})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			lr := resp.(*wire.ListResp)
			if len(lr.Names) != 1 || lr.Names[0] != name {
				t.Errorf("call %d got %v", i, lr.Names)
			}
		}(i)
	}
	wg.Wait()
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	block := make(chan struct{})
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		if _, ok := req.(*wire.List); ok {
			<-block // simulates a queued parity-lock read
			return &wire.ListResp{}, nil
		}
		return &wire.OK{}, nil
	})
	done := make(chan struct{})
	go func() {
		c.Call(&wire.List{}) //nolint:errcheck
		close(done)
	}()
	// While the List call is parked, a Ping must still complete.
	if _, err := c.Call(&wire.Ping{}); err != nil {
		t.Fatal(err)
	}
	close(block)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked call never finished")
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		<-block
		return &wire.OK{}, nil
	})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Ping{})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call never failed")
	}
	if _, err := c.Call(&wire.Ping{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestOverTCP(t *testing.T) {
	c := startTCPPair(t, func(req wire.Msg) (wire.Msg, error) {
		return &wire.OK{}, nil
	})
	if _, err := c.Call(&wire.Ping{}); err != nil {
		t.Fatal(err)
	}
}

func TestSimnetChargingOnCalls(t *testing.T) {
	clock := &simtime.Clock{Scale: 5 * time.Millisecond}
	nw := simnet.New(clock, simnet.Params{Latency: 0, BandwidthBPS: 1e6})
	cn, sn := nw.NewNode("client"), nw.NewNode("server")

	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(req wire.Msg) (wire.Msg, error) {
		return &wire.ReadResp{Data: make([]byte, 1e6)}, nil // 1 sim-s response
	}, sn, cn) //nolint:errcheck
	c := NewClient(cEnd, cn, sn)
	defer c.Close()

	start := time.Now()
	if _, err := c.Call(&wire.Read{}); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 4*time.Millisecond {
		t.Fatalf("modeled transfer not charged: %v", got)
	}
}

func TestLargePayload(t *testing.T) {
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		w := req.(*wire.WriteData)
		return &wire.ReadResp{Data: w.Data}, nil
	})
	resp, err := c.Call(&wire.WriteData{Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.(*wire.ReadResp).Data
	if len(got) != len(payload) {
		t.Fatalf("len=%d", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

// goid returns the calling goroutine's ID, from the "goroutine N [" header
// runtime.Stack prints.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

func TestServeConnReusesHandlers(t *testing.T) {
	var mu sync.Mutex
	ids := make(map[uint64]bool)
	c := startTCPPair(t, func(req wire.Msg) (wire.Msg, error) {
		mu.Lock()
		ids[goid()] = true
		mu.Unlock()
		return &wire.OK{}, nil
	})
	for i := 0; i < 200; i++ {
		if _, err := c.Call(&wire.Ping{}); err != nil {
			t.Fatal(err)
		}
	}
	// A worker parks once its response is written, so the next request can
	// come before it is back: a second worker, but never more. (Over an
	// in-process pipe a write returns only once the client has read it, so
	// the race is closer there; TCP is what the iods serve.)
	if len(ids) > 2 {
		t.Fatalf("200 sequential calls ran their handlers on %d goroutines, want at most 2", len(ids))
	}
}

// watchedConn reports when a read fails, and counts writes that have
// returned and closes.
type watchedConn struct {
	net.Conn
	readFailed     chan struct{}
	writes, closes atomic.Int32
}

func (w *watchedConn) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	if err != nil {
		close(w.readFailed)
	}
	return n, err
}

func (w *watchedConn) Write(p []byte) (int, error) {
	defer w.writes.Add(1)
	return w.Conn.Write(p)
}

func (w *watchedConn) Close() error {
	w.closes.Add(1)
	return w.Conn.Close()
}

func TestServeConnWaitsForWorkers(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	conn := &watchedConn{Conn: sEnd, readFailed: make(chan struct{})}
	entered, block := make(chan struct{}), make(chan struct{})
	var handler uint64
	served := make(chan error, 1)
	go func() {
		served <- ServeConn(conn, func(req wire.Msg) (wire.Msg, error) {
			handler = goid()
			close(entered)
			<-block // a handler parked when the peer goes
			return &wire.OK{}, nil
		}, nil, nil)
	}()
	c := NewClient(cEnd, nil, nil)
	go c.Call(&wire.Ping{}) //nolint:errcheck // fails once the client closes
	<-entered
	c.Close()
	<-conn.readFailed
	select {
	case <-served:
		t.Fatal("ServeConn returned while its handler was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	<-served
	// The handler's response write had returned, and the connection was
	// closed, by the time ServeConn did.
	if w, cl := conn.writes.Load(), conn.closes.Load(); w != 1 || cl != 1 {
		t.Fatalf("at return: %d response writes done, %d closes; want 1 and 1", w, cl)
	}
	// And the handler's goroutine is gone: it exited before the return, and
	// the runtime stops listing it a moment later.
	if !gone(handler, 5*time.Second) {
		t.Fatalf("handler goroutine %d outlived ServeConn", handler)
	}
}

// gone reports whether goroutine id has left the runtime's list of
// goroutines within wait.
func gone(id uint64, wait time.Duration) bool {
	header := []byte(fmt.Sprintf("goroutine %d [", id))
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(wait); ; time.Sleep(time.Millisecond) {
		if !bytes.Contains(buf[:runtime.Stack(buf, true)], header) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

var smallCallSink wire.Msg

// BenchmarkSmallCall is one request carrying a 16 KiB payload, the paper's
// small write, and its ack, over loopback TCP through ServeConnTraced: the
// per-request cost of both ends of the transport.
func BenchmarkSmallCall(b *testing.B) {
	c := startTCPPair(b, func(req wire.Msg) (wire.Msg, error) { return &wire.OK{}, nil })
	req := &wire.WriteData{Data: make([]byte, 16<<10)}
	b.SetBytes(int64(len(req.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		if smallCallSink, err = c.Call(req); err != nil {
			b.Fatal(err)
		}
	}
}
