// Package rpc carries wire messages over a byte-stream connection with
// request/response multiplexing.
//
// Each frame is a 4-byte little-endian length, a 4-byte sequence number, and
// a wire-encoded message. A client tags requests with fresh sequence numbers
// and matches responses; a server handles every request in its own goroutine
// so that one blocked request (a queued parity-lock read, Section 5.1 of the
// paper) never stalls the connection — exactly the behaviour PVFS iods get
// from their event loop.
//
// When the endpoints are simnet nodes, every frame charges the modeled NICs:
// requests on the client's outbound link, responses on the server's. This is
// how the figures' client-link saturation appears without real gigabit
// hardware.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"csar/internal/simnet"
	"csar/internal/wire"
)

// MaxFrame bounds a frame body to keep a corrupt or hostile length prefix
// from allocating unbounded memory.
const MaxFrame = 1 << 30

// ErrClosed is returned by calls pending on a connection that closed.
var ErrClosed = errors.New("rpc: connection closed")

// ErrTimeout is returned by CallTimeout when the deadline expires before the
// response arrives. It wraps context.DeadlineExceeded so callers can
// classify timeouts without importing this package's sentinel.
var ErrTimeout = fmt.Errorf("rpc: call timed out (%w)", context.DeadlineExceeded)

// writeFrame stamps the transport header into the frame's reserved prefix
// and puts head and payload on the wire without copying either: one write
// for head-only frames, a writev-style net.Buffers write when a payload
// rides along.
func writeFrame(w io.Writer, seq uint32, fr *wire.Frame) error {
	buf := fr.HeadWithPrefix()
	binary.LittleEndian.PutUint32(buf, uint32(4+fr.BodyLen()))
	binary.LittleEndian.PutUint32(buf[4:], seq)
	if len(fr.Payload) == 0 {
		_, err := w.Write(buf)
		return err
	}
	nb := net.Buffers{buf, fr.Payload}
	_, err := nb.WriteTo(w)
	return err
}

// readFrame reads one frame into a pooled buffer. The returned body aliases
// *bp, and so does the bulk Data of the message decoded from it (wire's
// aliasing rule): the caller hands bp back with wire.PutBuf only once nothing
// uses that message's Data any more.
func readFrame(r io.Reader) (seq uint32, body []byte, bp *[]byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 4 || n > MaxFrame {
		return 0, nil, nil, fmt.Errorf("rpc: invalid frame length %d", n)
	}
	bp = wire.GetBuf(int(n))
	buf := *bp
	if _, err = io.ReadFull(r, buf); err != nil {
		wire.PutBuf(bp)
		return 0, nil, nil, err
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], bp, nil
}

// Client issues concurrent calls over one connection.
type Client struct {
	conn io.ReadWriteCloser
	// local and remote are the simnet endpoints; either may be nil for an
	// unmodeled (real TCP) connection.
	local, remote *simnet.Node

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	seq     uint32
	pending map[uint32]chan msgOrErr
	churn   int // inserts since pending was last (re)allocated
	closed  bool
}

type msgOrErr struct {
	msg wire.Msg
	err error
}

// NewClient wraps conn. If local and remote are non-nil, each request
// charges the modeled transfer from local to remote (and the server side
// charges the response). The client owns conn and closes it on Close.
func NewClient(conn io.ReadWriteCloser, local, remote *simnet.Node) *Client {
	c := &Client{
		conn:    conn,
		local:   local,
		remote:  remote,
		pending: make(map[uint32]chan msgOrErr),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		seq, body, bp, err := readFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		m, err := wire.Unmarshal(body)
		// A ReadResp's Data views the frame, so the response keeps the buffer
		// until its consumer calls Release; nothing else decoded here aliases.
		rr, _ := m.(*wire.ReadResp)
		if rr != nil {
			rr.HoldBuf(bp)
		} else {
			wire.PutBuf(bp)
		}
		c.mu.Lock()
		ch := c.pending[seq]
		c.forget(seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- msgOrErr{m, err}
		} else {
			rr.Release() // late response to an abandoned call: nobody else will
		}
	}
}

// forget removes a pending entry (mu held). Go maps never shrink their
// bucket arrays, so a burst of timed-out calls would otherwise pin the
// high-water memory forever; once the map drains after enough churn, swap
// in a fresh one.
func (c *Client) forget(seq uint32) {
	delete(c.pending, seq)
	if c.churn > 1024 && len(c.pending) == 0 {
		c.pending = make(map[uint32]chan msgOrErr)
		c.churn = 0
	}
}

// PendingCalls reports the number of in-flight calls (for tests).
func (c *Client) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, ch := range c.pending {
		ch <- msgOrErr{nil, fmt.Errorf("%w (%v)", ErrClosed, err)}
	}
	c.pending = make(map[uint32]chan msgOrErr)
	c.churn = 0
}

// Call sends req and blocks for the matching response. A wire.Error response
// is converted into a Go error.
func (c *Client) Call(req wire.Msg) (wire.Msg, error) { return c.call(req, 0, 0) }

// CallTimeout is Call with a per-call deadline. When the deadline expires
// before the response arrives the call returns ErrTimeout and the sequence
// number is abandoned: a late response is dropped (and its buffer recycled)
// by the read loop, and the connection stays usable for other calls. A
// non-positive timeout means no deadline.
func (c *Client) CallTimeout(req wire.Msg, timeout time.Duration) (wire.Msg, error) {
	return c.call(req, timeout, 0)
}

// CallTraced is CallTimeout with an operation trace ID riding the request
// frame's wire header, so the server can correlate this RPC with the client
// operation that issued it. A zero trace sends the plain untraced encoding.
func (c *Client) CallTraced(req wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error) {
	return c.call(req, timeout, trace)
}

func (c *Client) call(req wire.Msg, timeout time.Duration, trace uint64) (wire.Msg, error) {
	fr := wire.MarshalFrame(req, trace)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fr.Free()
		return nil, ErrClosed
	}
	c.seq++
	seq := c.seq
	ch := make(chan msgOrErr, 1)
	c.pending[seq] = ch
	c.churn++
	c.mu.Unlock()

	if timeout <= 0 {
		err := c.send(seq, &fr)
		fr.Free()
		if err != nil {
			c.abandon(seq)
			return nil, err
		}
		return decodeResult(<-ch)
	}

	// The send itself can block (a hung modeled link, a full pipe), so it
	// must race the deadline too. The send goroutine owns the frame and
	// frees it when the write finishes, whether or not the call has been
	// abandoned by then. Because that write can outlive this call, the
	// frame must not alias the caller's buffers: a caller reusing its slice
	// right after ErrTimeout would race the in-flight write and the server
	// could apply a torn payload as a valid write. A payload the sender
	// gathered into a pooled buffer and handed over with req is the frame's
	// already; only a caller's own slice is copied here.
	fr.OwnPayload()
	sendErr := make(chan error, 1)
	go func() {
		err := c.send(seq, &fr)
		fr.Free()
		sendErr <- err
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case r := <-ch:
			return decodeResult(r)
		case err := <-sendErr:
			if err != nil {
				c.abandon(seq)
				return nil, err
			}
			sendErr = nil // sent; keep waiting for the response or the deadline
		case <-timer.C:
			c.abandon(seq)
			return nil, ErrTimeout
		}
	}
}

// send charges the modeled link and writes the request frame.
func (c *Client) send(seq uint32, fr *wire.Frame) error {
	if err := c.local.Send(c.remote, int64(8+fr.BodyLen())); err != nil {
		return fmt.Errorf("rpc: send: %w", err)
	}
	c.wmu.Lock()
	err := writeFrame(c.conn, seq, fr)
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("rpc: send: %w", err)
	}
	return nil
}

// abandon forgets a pending call; a late response finds no channel and is
// dropped by readLoop.
func (c *Client) abandon(seq uint32) {
	c.mu.Lock()
	c.forget(seq)
	c.mu.Unlock()
}

func decodeResult(r msgOrErr) (wire.Msg, error) {
	if r.err != nil {
		return nil, r.err
	}
	if e, ok := r.msg.(*wire.Error); ok {
		return nil, e
	}
	return r.msg, nil
}

// Close shuts the connection down; pending and future calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.failAll(ErrClosed)
	return err
}

// Handler processes one request and returns its response. Returning an
// error sends a wire.Error to the caller.
type Handler func(req wire.Msg) (wire.Msg, error)

// TracedHandler is a Handler that also receives the request's operation
// trace ID (zero for untraced frames), for per-op correlation in server
// stats and slow-op logs.
type TracedHandler func(req wire.Msg, trace uint64) (wire.Msg, error)

// ServeConn reads requests from conn until it closes, dispatching each to h
// in its own goroutine. If local and remote are non-nil simnet nodes,
// responses charge the modeled transfer from local (the server) to remote
// (the client). ServeConn returns when the connection fails or closes.
func ServeConn(conn io.ReadWriteCloser, h Handler, local, remote *simnet.Node) error {
	return ServeConnTraced(conn, func(req wire.Msg, _ uint64) (wire.Msg, error) {
		return h(req)
	}, local, remote)
}

// ServeConnTraced is ServeConn for handlers that consume the per-request
// trace ID. It owns conn and closes it on return: without that, every
// client that disconnects leaves its accepted descriptor open forever on
// the server, and a long-lived daemon eventually runs out of fds.
func ServeConnTraced(conn io.ReadWriteCloser, h TracedHandler, local, remote *simnet.Node) error {
	defer conn.Close() //nolint:errcheck // already torn down; nothing to report
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		seq, body, bp, err := readFrame(conn)
		if err != nil {
			return err
		}
		req, trace, err := wire.UnmarshalTraced(body)
		if err != nil {
			// Unknown or corrupt request: answer with an error frame.
			req = nil
		}
		wg.Add(1)
		go func(seq uint32, req wire.Msg, bp *[]byte, trace uint64, unmarshalErr error) {
			defer wg.Done()
			var resp wire.Msg
			if unmarshalErr != nil {
				resp = &wire.Error{Text: unmarshalErr.Error()}
			} else {
				r, herr := handleSafely(h, req, trace)
				if herr != nil {
					resp = &wire.Error{Text: herr.Error(), Code: wire.ErrorCodeOf(herr)}
				} else {
					resp = r
				}
			}
			// The response's bulk data (a ReadResp payload) rides the frame
			// by reference. If the modeled link drops the response after the
			// handler ran (work done, reply lost), the client's deadline
			// detects it.
			fr := wire.MarshalFrame(resp, 0)
			if local.Send(remote, int64(8+fr.BodyLen())) == nil {
				wmu.Lock()
				writeFrame(conn, seq, &fr) //nolint:errcheck // conn teardown is detected by readFrame
				wmu.Unlock()
			}
			fr.Free()
			// Written or dropped, the payloads are done with: the response's
			// pooled buffer, then the request frame the handler's view of
			// req's Data (and a response echoing it) borrowed until now.
			if rr, ok := resp.(*wire.ReadResp); ok {
				rr.Release()
			}
			wire.PutBuf(bp)
		}(seq, req, bp, trace, err)
	}
}

// handleSafely converts a handler panic into an error response, so one bad
// request cannot take down a server shared by many clients.
func handleSafely(h TracedHandler, req wire.Msg, trace uint64) (resp wire.Msg, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return h(req, trace)
}
