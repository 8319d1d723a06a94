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
	"bufio"
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
	if fr.Vec != nil {
		nb := append(net.Buffers{buf}, fr.Vec...)
		_, err := nb.WriteTo(w)
		return err
	}
	if len(fr.Payload) == 0 {
		_, err := w.Write(buf)
		return err
	}
	nb := net.Buffers{buf, fr.Payload}
	_, err := nb.WriteTo(w)
	return err
}

// prefixLen is the transport header's length: a frame's length and sequence
// number.
const prefixLen = 8

// parsePrefix decodes a transport header: the length of the message that
// follows it, and the sequence number.
func parsePrefix(hdr []byte) (body int, seq uint32, err error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n < 4 || n > MaxFrame {
		return 0, 0, fmt.Errorf("rpc: invalid frame length %d", n)
	}
	return int(n) - 4, binary.LittleEndian.Uint32(hdr[4:]), nil
}

// readBody reads a frame's n-byte message into a pooled buffer, which the
// caller hands back with wire.PutBuf once nothing uses the bulk Data of the
// message decoded from it (wire's aliasing rule).
func readBody(r io.Reader, n int) (*[]byte, error) {
	bp := wire.GetBuf(n)
	if _, err := io.ReadFull(r, *bp); err != nil {
		wire.PutBuf(bp)
		return nil, err
	}
	return bp, nil
}

// readFrame reads one frame into a pooled buffer: the returned body is *bp,
// under readBody's rule.
func readFrame(r io.Reader) (seq uint32, body []byte, bp *[]byte, err error) {
	var hdr [prefixLen]byte
	var n int
	if _, err = io.ReadFull(r, hdr[:]); err == nil {
		n, seq, err = parsePrefix(hdr[:])
	}
	if err == nil {
		bp, err = readBody(r, n)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return seq, *bp, bp, nil
}

// readBufSize is the client read loop's buffer: big enough that a frame's
// prefix and head, and most whole small frames, take one read; small beside
// the pieces a response lands, which bypass it.
const readBufSize = 4 << 10

// Client issues concurrent calls over one connection.
//
// A Read call may carry Into, the caller's slices for the response's bytes.
// When its response is a ReadResp of exactly their total length, the read
// loop reads the bytes straight from the connection into them — no frame
// buffer, no copy — and delivers a landed ReadResp. Every other response
// takes the pooled frame path. No call returns while the read loop may
// still write into its slices: a call abandoned mid-landing closes the
// connection and waits for the loop to leave them (abandon), and Close
// leaves a landing call for the loop to answer once its read fails.
type Client struct {
	conn io.ReadWriteCloser
	// local and remote are the simnet endpoints; either may be nil for an
	// unmodeled (real TCP) connection.
	local, remote *simnet.Node

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	seq     uint32
	pending map[uint32]pendingCall
	churn   int // inserts since pending was last (re)allocated
	closed  bool
	// landing is the channel of the call whose response the read loop is
	// reading into its slices (nil: none); left is signaled when it stops.
	landing chan msgOrErr
	left    sync.Cond

	// vread reads pieces straight off the connection with vectored reads
	// (nil where there are none); rest is fill's work list. Read loop only.
	vread func(pieces [][]byte) error
	rest  [][]byte
}

// pendingCall is one in-flight call: where its answer goes and, for a
// landing Read, the slices its bytes go into and their total length.
type pendingCall struct {
	ch   chan msgOrErr
	into [][]byte
	want int
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
		pending: make(map[uint32]pendingCall),
		vread:   vectoredReader(conn),
	}
	c.left.L = &c.mu
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	r := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		if err := c.readResponse(r); err != nil {
			c.failAll(err)
			return
		}
	}
}

// readResponse reads one response frame and answers its call: landed into
// the call's slices when it can be, else through a pooled frame buffer.
func (c *Client) readResponse(r *bufio.Reader) error {
	hdr, err := r.Peek(prefixLen) // a view of r's buffer: no header to allocate
	if err != nil {
		return err
	}
	n, seq, err := parsePrefix(hdr)
	if err != nil {
		return err
	}
	r.Discard(prefixLen) //nolint:errcheck // the bytes are buffered
	if p, ok := c.landable(r, seq, n); ok {
		return c.land(r, seq, p)
	}
	bp, err := readBody(r, n)
	if err != nil {
		return err
	}
	m, err := wire.Unmarshal(*bp)
	// A ReadResp's Data views the frame, so the response keeps the buffer
	// until its consumer calls Release; nothing else decoded here aliases.
	rr, _ := m.(*wire.ReadResp)
	if rr != nil {
		rr.HoldBuf(bp)
	} else {
		wire.PutBuf(bp)
	}
	c.mu.Lock()
	p := c.pending[seq]
	c.forget(seq)
	c.mu.Unlock()
	if p.ch != nil {
		p.ch <- msgOrErr{m, err}
	} else {
		rr.Release() // late response to an abandoned call: nobody else will
	}
	return nil
}

// landable reports whether frame seq, whose n-byte message is next in r, is
// the response a pending call can land — a ReadResp of exactly the length of
// the call's slices — and if so marks that call landing.
func (c *Client) landable(r *bufio.Reader, seq uint32, n int) (pendingCall, bool) {
	if n < wire.ReadRespHead {
		return pendingCall{}, false
	}
	head, _ := r.Peek(wire.ReadRespHead) // short on error: the body read reports it
	size, ok := wire.ReadRespLen(head)
	if !ok || n != wire.ReadRespHead+size {
		return pendingCall{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pending[seq]
	if !ok || p.into == nil || p.want != size {
		return pendingCall{}, false
	}
	c.landing = p.ch
	return p, true
}

// land reads a matching ReadResp's bytes into the call's slices and answers
// it; the call stays pending, so nothing else answers it meanwhile. A read
// that fails answers the call with the connection's failure, after the loop
// has left its slices.
func (c *Client) land(r *bufio.Reader, seq uint32, p pendingCall) error {
	_, err := r.Discard(wire.ReadRespHead)
	if err == nil {
		err = c.fill(r, p.into)
	}
	c.mu.Lock()
	c.landing = nil
	c.left.Broadcast()
	c.forget(seq)
	c.mu.Unlock()
	if err != nil {
		p.ch <- msgOrErr{nil, closedBy(err)}
		return err
	}
	p.ch <- msgOrErr{wire.LandedReadResp(p.into), nil}
	return nil
}

// fill reads exactly len(pieces[0]) + len(pieces[1]) + ... bytes from r
// into pieces, in order: what r has buffered is copied, and the rest comes
// straight off the connection — by vectored reads where the connection has
// a descriptor and the platform the call (readv), so one read fills every
// piece the socket already holds, else by one read per piece. A large
// response arrives with the socket holding most of it, and a read per
// piece was measured to cost read latency under load (see DESIGN §5).
func (c *Client) fill(r *bufio.Reader, pieces [][]byte) error {
	c.rest = append(c.rest[:0], pieces...) // the read loop's own list: pieces stay the caller's
	defer clear(c.rest)                    // and pin none of the caller's memory once done
	rest := c.rest
	for len(rest) > 0 && r.Buffered() > 0 {
		n, _ := r.Read(rest[0]) // buffered bytes only: no read from the connection
		if rest[0] = rest[0][n:]; len(rest[0]) == 0 {
			rest = rest[1:]
		}
	}
	if c.vread != nil {
		return c.vread(rest)
	}
	for _, piece := range rest {
		if _, err := io.ReadFull(r, piece); err != nil {
			return err
		}
	}
	return nil
}

// forget removes a pending entry (mu held). Go maps never shrink their
// bucket arrays, so a burst of timed-out calls would otherwise pin the
// high-water memory forever; once the map drains after enough churn, swap
// in a fresh one.
func (c *Client) forget(seq uint32) {
	delete(c.pending, seq)
	if c.churn > 1024 && len(c.pending) == 0 {
		c.pending = make(map[uint32]pendingCall)
		c.churn = 0
	}
}

// PendingCalls reports the number of in-flight calls (for tests).
func (c *Client) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Closed reports whether the connection has failed or been closed: every
// call from now on fails with ErrClosed.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// closedBy is the error a call gets when the connection fails under it.
func closedBy(err error) error { return fmt.Errorf("%w (%v)", ErrClosed, err) }

// failAll marks the client closed and fails every pending call but a
// landing one, which the read loop answers once its read fails.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for seq, p := range c.pending {
		if p.ch != c.landing {
			p.ch <- msgOrErr{nil, closedBy(err)}
			delete(c.pending, seq)
		}
	}
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
	p := pendingCall{ch: ch}
	if r, ok := req.(*wire.Read); ok && r.Into != nil {
		p.into = r.Into
		for _, piece := range r.Into {
			p.want += len(piece)
		}
	}
	c.pending[seq] = p
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

// abandon forgets a pending call; a late response finds no call and is
// dropped by readLoop. A response already landing in the call's slices
// cannot be cut off cleanly: abandon closes the connection, which ends the
// landing read, and waits until the read loop has left the slices, so that
// the caller may reuse them the moment its call returns.
func (c *Client) abandon(seq uint32) {
	c.mu.Lock()
	if p, ok := c.pending[seq]; ok && p.ch == c.landing {
		c.closed = true
		c.mu.Unlock()
		c.conn.Close() //nolint:errcheck // the read loop reports the teardown
		c.mu.Lock()
		for c.landing == p.ch {
			c.left.Wait()
		}
	}
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
