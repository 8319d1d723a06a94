package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
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
	_, err := c.CallTimeout(&wire.Ping{}, 25*time.Millisecond)
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
	resp, err := c.CallTimeout(&wire.Health{}, time.Second)
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

	_, err := c.CallTimeout(&wire.Ping{}, 25*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}

	// Clearing the fault lets the stuck frame drain; the connection keeps
	// working.
	n.ClearFaults()
	if _, err := c.CallTimeout(&wire.Ping{}, time.Second); err != nil {
		t.Fatalf("call after link heal: %v", err)
	}
}

func TestTimedOutSendDoesNotAliasCallerBuffer(t *testing.T) {
	// The client end of an unbuffered pipe with no reader: the send
	// goroutine wedges mid-write, the deadline fires, and the call returns
	// while the frame is still streaming.
	cEnd, sEnd := net.Pipe()
	c := NewClient(cEnd, nil, nil)
	t.Cleanup(func() { c.Close() })

	payload := patternOf(64<<10, 7) // well above the payload-split threshold
	want := append([]byte(nil), payload...)

	_, err := c.CallTimeout(&wire.WriteData{
		File:  wire.FileRef{ID: 7},
		Spans: []wire.Span{{Off: 0, Len: int64(len(payload))}},
		Data:  payload,
	}, 25*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}

	// The caller reuses its buffer the moment the call returns — exactly
	// what a WriteAt caller does with its scratch stripe buffer. The
	// abandoned send, still blocked on the unread pipe, must be streaming a
	// private copy, not this slice.
	for i := range payload {
		payload[i] = 0xFF
	}

	// Drain the pipe and decode the frame that was in flight; a torn or
	// mutated payload here is the write the server would have applied.
	_, body, bp, err := readFrame(sEnd)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	m, err := wire.Unmarshal(body)
	if err != nil {
		t.Fatalf("unmarshal in-flight frame: %v", err)
	}
	got := m.(*wire.WriteData).Data // views *bp
	if !bytes.Equal(got, want) {
		t.Fatal("timed-out send streamed the caller's mutated buffer (torn write)")
	}
	wire.PutBuf(bp)
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

	_, err := c.CallTimeout(&wire.Ping{}, 25*time.Millisecond)
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

// TestAbandonedSendOwnsItsPayload: a write whose payload the sender gathered
// into a pooled buffer and handed to the message needs no second copy to
// survive its caller. The link hangs, the deadline fires, the caller
// scribbles over its own buffer at once — and when the link heals the server
// applies the intact payload or nothing, after which the gathered buffer goes
// back to the pool through the frame, once.
func TestAbandonedSendOwnsItsPayload(t *testing.T) {
	wire.SetPoolPoison(true)
	t.Cleanup(func() { wire.SetPoolPoison(false) })

	n := simnet.New(nil, simnet.DefaultParams())
	cn, sn := n.NewNode("client"), n.NewNode("server")
	n.SetLinkFault("client", "server", simnet.LinkFault{Hang: true})
	t.Cleanup(n.ClearFaults)

	const size = 64 << 10
	want := patternOf(size, 7)
	applied := make(chan bool, 1)
	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(req wire.Msg) (wire.Msg, error) { //nolint:errcheck
		if w, ok := req.(*wire.WriteData); ok {
			applied <- bytes.Equal(w.Data, want)
		}
		return &wire.OK{}, nil
	}, sn, cn)
	c := NewClient(cEnd, cn, sn)
	t.Cleanup(func() { c.Close() })

	// What the client's write paths do: gather the caller's bytes into a
	// pooled buffer made for this one message.
	caller := patternOf(size, 7)
	bp := wire.GetBuf(size)
	copy(*bp, caller)
	m := &wire.WriteData{
		File:  wire.FileRef{ID: 7},
		Spans: []wire.Span{{Off: 0, Len: size}},
		Data:  *bp,
	}
	m.HoldBuf(bp)
	if _, err := c.CallTimeout(m, 25*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	for i := range caller {
		caller[i] = 0xFF
	}

	n.ClearFaults()
	select {
	case intact := <-applied:
		if !intact {
			t.Fatal("the abandoned send delivered a torn or recycled payload")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned send never drained")
	}

	// The send goroutine frees the frame once the write is out. Draw from the
	// buffer's class until it turns up (a pool may also drop it, which is
	// allowed): it must come back poisoned — it went through PutBuf — and
	// never twice.
	var drawn []*[]byte
	seen := 0
	for deadline := time.Now().Add(time.Second); seen == 0 && time.Now().Before(deadline); {
		for i := 0; i < 8; i++ {
			got := wire.GetBuf(size)
			if got == bp {
				seen++
				for j, b := range (*got)[:cap(*got)] {
					if b != 0xDB {
						t.Fatalf("gathered buffer came back unpoisoned at byte %d: it bypassed PutBuf", j)
					}
				}
			}
			drawn = append(drawn, got) // held, so the same box cannot be drawn twice by chance
		}
		time.Sleep(time.Millisecond)
	}
	if seen > 1 {
		t.Fatalf("gathered buffer was returned to the pool %d times", seen)
	}
	for _, b := range drawn {
		if b != bp {
			wire.PutBuf(b)
		}
	}
}
