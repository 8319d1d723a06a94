package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"csar/internal/wire"
)

// patternOf fills a payload deterministically from a seed so corruption is
// detectable at any point in the frame lifecycle.
func patternOf(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*13)
	}
	return b
}

// TestPoolPoisonCorrectness is the pool-correctness property test for the
// borrow/release rule, in both directions. With poison-on-put enabled, every
// recycled buffer is overwritten the moment it is returned, so under this
// concurrent load a buffer handed back while something still reads it — the
// request frame before its handler is done, a response's frame before its
// consumer released it, a pooled response before it is on the wire — shows
// up as payload corruption. Run it with -race for the ordering half of the
// same property.
func TestPoolPoisonCorrectness(t *testing.T) {
	wire.SetPoolPoison(true)
	t.Cleanup(func() { wire.SetPoolPoison(false) })

	c := startPair(t, func(req wire.Msg) (wire.Msg, error) {
		w := req.(*wire.WriteData)
		// w.Data views the request's frame buffer, which stays out of the
		// pool until this handler has returned and the response is written.
		want := patternOf(len(w.Data), byte(w.File.ID))
		if !bytes.Equal(w.Data, want) {
			return nil, fmt.Errorf("request payload corrupted (seed %d, len %d)", w.File.ID, len(w.Data))
		}
		if w.Raw {
			// Echoing the borrowed slice itself: the response frame carries
			// the request's buffer by reference.
			return &wire.ReadResp{Data: w.Data}, nil
		}
		// What the server's read handlers do: fill a pooled response, which
		// the transport releases after the write.
		resp := wire.NewReadResp(len(w.Data))
		copy(resp.Data, w.Data)
		return resp, nil
	})

	// Sizes straddle the payload-split threshold and the pool's classes:
	// head-inlined, barely split, and bulk.
	sizes := []int{100, 3 << 10, 64 << 10}
	const workers = 8
	const rounds = 48

	type kept struct {
		seed byte
		data []byte
	}
	keep := make([][]kept, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				seed := byte(w*rounds + r)
				payload := patternOf(sizes[r%len(sizes)], seed)
				resp, err := c.Call(&wire.WriteData{
					File:  wire.FileRef{ID: uint64(seed)},
					Spans: []wire.Span{{Off: 0, Len: int64(len(payload))}},
					Data:  payload,
					Raw:   r%2 == 0,
				})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				rr := resp.(*wire.ReadResp)
				// The response views its frame buffer until released.
				if !bytes.Equal(rr.Data, payload) {
					t.Errorf("worker %d round %d: response corrupted", w, r)
					return
				}
				if r%4 == 3 {
					// Forgetting Release is allowed: the buffer stays this
					// response's for as long as it is referenced.
					keep[w] = append(keep[w], kept{seed, rr.Data})
					continue
				}
				rr.Release()
				rr.Release() // idempotent
				if rr.Data != nil {
					t.Errorf("worker %d round %d: Release left Data set", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for w, ks := range keep {
		for _, k := range ks {
			if !bytes.Equal(k.data, patternOf(len(k.data), k.seed)) {
				t.Fatalf("worker %d: unreleased response (seed %d) corrupted by later pool reuse", w, k.seed)
			}
		}
	}
}

// spyConn records the large buffers the client's read loop reads into — the
// pooled frame buffers themselves — so a test can look at one after the
// transport is done with it. It counts the bytes the loop has consumed, and
// nextFrame closes when the loop reads again after the first frameLen bytes:
// it has dealt with that frame and is coming back for the next one, however
// its reads are split.
type spyConn struct {
	net.Conn
	frameLen  int
	mu        sync.Mutex
	big       [][]byte
	consumed  int
	nextFrame chan struct{}
	signaled  bool
}

func (s *spyConn) Read(p []byte) (int, error) {
	s.mu.Lock()
	if len(p) >= 32<<10 {
		s.big = append(s.big, p)
	}
	if s.consumed >= s.frameLen && !s.signaled {
		s.signaled = true
		close(s.nextFrame)
	}
	s.mu.Unlock()
	n, err := s.Conn.Read(p)
	s.mu.Lock()
	s.consumed += n
	s.mu.Unlock()
	return n, err
}

// TestLateReadRespIsRecycled: the response to a call that already timed out
// is neither delivered to a later call nor leaked — the read loop itself
// releases its frame buffer, which the pool poison proves.
func TestLateReadRespIsRecycled(t *testing.T) {
	wire.SetPoolPoison(true)
	t.Cleanup(func() { wire.SetPoolPoison(false) })

	const size = 64 << 10
	unwedge := make(chan struct{})
	cEnd, sEnd := net.Pipe()
	go ServeConn(sEnd, func(req wire.Msg) (wire.Msg, error) { //nolint:errcheck
		if _, ok := req.(*wire.Read); !ok {
			return &wire.OK{}, nil
		}
		<-unwedge
		resp := wire.NewReadResp(size)
		copy(resp.Data, patternOf(size, 9))
		return resp, nil
	}, nil, nil)
	// The late response is the first frame: prefix, kind, length, payload.
	spy := &spyConn{Conn: cEnd, frameLen: 8 + wire.ReadRespHead + size, nextFrame: make(chan struct{})}
	c := NewClient(spy, nil, nil)
	t.Cleanup(func() { c.Close() })

	if _, err := c.CallTraced(&wire.Read{}, 0, 25*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	close(unwedge)
	select {
	case <-spy.nextFrame:
	case <-time.After(5 * time.Second):
		t.Fatal("late response never arrived")
	}
	resp, err := c.CallTraced(&wire.Health{}, 0, 5*time.Second)
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if _, ok := resp.(*wire.OK); !ok {
		t.Fatalf("late response leaked into a later call: got %T", resp)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("PendingCalls = %d after the late response, want 0", n)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.big) == 0 {
		t.Fatal("never saw the late response's frame being read")
	}
	// The first large read was handed the whole frame buffer.
	for i, b := range spy.big[0] {
		if b != 0xDB {
			t.Fatalf("late response's frame buffer not recycled: byte %d is %#x, want poison", i, b)
		}
	}
}
