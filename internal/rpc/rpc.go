// Package rpc carries wire messages over a byte-stream connection with
// request/response multiplexing.
//
// Each frame is a 4-byte little-endian length, a 4-byte sequence number, and
// a wire-encoded message. A client tags requests with fresh sequence numbers
// and matches responses; a server handles every request on a reused
// goroutine so that one blocked request (a queued parity-lock read, Section
// 5.1 of the paper) never stalls the connection — exactly the behaviour
// PVFS iods get from their event loop.
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

	"csar/internal/gopool"
	"csar/internal/simnet"
	"csar/internal/wire"
)

// MaxFrame bounds a frame body to keep a corrupt or hostile length prefix
// from allocating unbounded memory.
const MaxFrame = 1 << 30

// ErrClosed is returned by calls pending on a connection that closed.
var ErrClosed = errors.New("rpc: connection closed")

// ErrTimeout is returned by a deadlined call whose deadline expires before
// the response arrives. It wraps context.DeadlineExceeded so callers can
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

// readPrefix reads a frame's transport header from r, by Peek: a view of
// r's buffer, so there is no header to allocate.
func readPrefix(r *bufio.Reader) (body int, seq uint32, err error) {
	hdr, err := r.Peek(prefixLen)
	if err != nil {
		return 0, 0, err
	}
	if body, seq, err = parsePrefix(hdr); err == nil {
		r.Discard(prefixLen) //nolint:errcheck // the bytes are buffered
	}
	return body, seq, err
}

// readBody reads a frame's n-byte message into a pooled buffer, which the
// caller hands back with wire.PutBuf once nothing uses the bulk Data of the
// message decoded from it (wire's aliasing rule). What r has buffered is
// copied; the rest comes straight off conn, r's connection.
func readBody(r *bufio.Reader, conn io.Reader, n int) (*[]byte, error) {
	bp := wire.GetBuf(n)
	k, _ := r.Read((*bp)[:min(n, r.Buffered())]) // buffered bytes only
	if _, err := io.ReadFull(conn, (*bp)[k:]); err != nil {
		wire.PutBuf(bp)
		return nil, err
	}
	return bp, nil
}

// readBufSize is the client read loop's buffer: big enough that a frame's
// prefix and head, and most whole small frames, take one read; small beside
// the pieces a response lands, which bypass it.
const readBufSize = 4 << 10

// Client issues concurrent calls over one connection.
//
// No call returns while the transport can still touch its bytes, in either
// direction. A request goes out from the caller's goroutine, straight from
// the message's slices (a write's pieces of the caller's buffer ride the
// frame by reference), and the call returns only once the writer has left
// the frame. A Read call may carry Into, the caller's slices for the
// response's bytes. When its response is a ReadResp of exactly their total
// length, the read loop reads the bytes straight from the connection into
// them — no frame buffer, no copy — and delivers a landed ReadResp; the
// loop answers the call only once it has left them. Every other response
// takes the pooled frame path. A deadline never cuts a frame off (expire).
type Client struct {
	conn io.ReadWriteCloser
	// local and remote are the simnet endpoints; either may be nil for an
	// unmodeled (real TCP) connection.
	local, remote *simnet.Node

	wslot chan struct{} // the write slot: whoever holds it writes one frame

	mu      sync.Mutex
	seq     uint32
	pending map[uint32]pendingCall
	churn   int // inserts since pending was last (re)allocated
	closed  bool
	// writing is the channel of the call whose frame is being written, and
	// landing that of the call whose response the read loop is reading into
	// its slices (nil: none).
	writing, landing chan msgOrErr

	// vread reads pieces straight off the connection with vectored reads
	// (nil where there are none); rest is fill's work list. Read loop only.
	vread func(pieces [][]byte) error
	rest  [][]byte
}

// pendingCall is one in-flight call: where its answer goes and, for a
// landing Read, the slices its bytes go into and their total length.
// expired marks a landing call whose deadline passed: the read loop answers
// it with ErrTimeout.
type pendingCall struct {
	ch      chan msgOrErr
	into    [][]byte
	want    int
	expired bool
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
		wslot:   make(chan struct{}, 1),
		pending: make(map[uint32]pendingCall),
		vread:   vectoredReader(conn),
	}
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
	n, seq, err := readPrefix(r)
	if err != nil {
		return err
	}
	if p, ok := c.landable(r, seq, n); ok {
		return c.land(r, seq, p)
	}
	bp, err := readBody(r, c.conn, n)
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
// that fails answers the call, after the loop has left its slices, with the
// connection's failure — or ErrTimeout, when the call's deadline closed the
// connection to end the read.
func (c *Client) land(r *bufio.Reader, seq uint32, p pendingCall) error {
	_, err := r.Discard(wire.ReadRespHead)
	if err == nil {
		err = c.fill(r, p.into)
	}
	c.mu.Lock()
	c.landing = nil
	expired := c.pending[seq].expired
	c.forget(seq)
	c.mu.Unlock()
	if err != nil {
		fail := closedBy(err)
		if expired {
			fail = ErrTimeout
		}
		p.ch <- msgOrErr{nil, fail}
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
func (c *Client) Call(req wire.Msg) (wire.Msg, error) { return c.CallTraced(req, 0, 0) }

// CallTraced is Call with an operation trace ID riding the request frame's
// wire header, so the server can correlate this RPC with the client
// operation that issued it, and a per-call deadline. A zero trace sends the
// plain untraced encoding; a non-positive timeout means no deadline.
//
// When the deadline expires before the response arrives the call returns
// ErrTimeout and the sequence number is abandoned: a late response is
// dropped (and its buffer recycled) by the read loop. The connection stays
// usable unless the deadline found the call's frame stuck on the wire or its
// response landing; then it is closed (Closed reports it), and the call
// still returns only once the transport has left its bytes.
func (c *Client) CallTraced(req wire.Msg, trace uint64, timeout time.Duration) (wire.Msg, error) {
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

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		t := time.AfterFunc(timeout, func() { c.expire(seq) })
		defer t.Stop()
	}
	err := c.send(seq, ch, &fr, deadline)
	fr.Free()
	if err != nil {
		return nil, err
	}
	return decodeResult(<-ch)
}

// send puts the request frame on the wire from the caller's goroutine — the
// modeled link first, then the connection, one frame at a time — and
// returns once the writer has left it. A nil error means the call's answer
// is, or will be, on ch; an error ends the call unanswered.
func (c *Client) send(seq uint32, ch chan msgOrErr, fr *wire.Frame, deadline time.Time) error {
	if err := c.local.Send(c.remote, int64(8+fr.BodyLen()), deadline); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return c.unanswered(seq, ErrTimeout) // the link model held the frame: nothing was written
		}
		return c.unanswered(seq, fmt.Errorf("rpc: send: %w", err))
	}
	select {
	case c.wslot <- struct{}{}:
	case r := <-ch: // answered before its frame began: expired, or the connection failed
		ch <- r
		return nil
	}
	c.mu.Lock()
	_, live := c.pending[seq]
	if live {
		c.writing = ch
	}
	c.mu.Unlock()
	var err error
	if live {
		err = writeFrame(c.conn, seq, fr)
	}
	<-c.wslot
	c.mu.Lock()
	c.writing = nil
	c.mu.Unlock()
	if err != nil {
		err = c.unanswered(seq, fmt.Errorf("rpc: send: %w", err))
		c.Close() // part of the frame may be out: the stream cannot carry another
	}
	return err
}

// unanswered ends a call whose send failed with err: it forgets the call
// and returns err, unless something answered the call first — its deadline,
// the connection's failure, the read loop landing a response — in which
// case it returns nil and the call takes that answer from its channel.
func (c *Client) unanswered(seq uint32, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, live := c.pending[seq]; live && p.ch != c.landing {
		c.forget(seq)
		return err
	}
	return nil
}

// writeGrace is how long a frame may still be going out after its call's
// deadline before the connection is presumed stuck — a peer that stopped
// reading — and closed, which ends the write. A write that is merely late
// (the deadline fell while it ran) finishes and leaves the connection be.
const writeGrace = time.Second

// expire is a deadlined call's timer. A call whose response is landing
// cannot be cut off cleanly: the connection is closed, which ends the
// landing read, and the read loop answers the call with ErrTimeout once it
// has left its slices. Any other pending call is answered with ErrTimeout
// and forgotten at once — a late response finds no call — but one whose
// frame is being written still returns only when its write does, and a
// write that outlasts writeGrace closes the connection.
func (c *Client) expire(seq uint32) {
	c.mu.Lock()
	p, ok := c.pending[seq]
	landing, writing := ok && p.ch == c.landing, ok && p.ch == c.writing
	if landing {
		p.expired = true
		c.pending[seq] = p
	} else if ok {
		c.forget(seq)
	}
	c.mu.Unlock()
	switch {
	case landing:
		c.Close()
	case ok:
		p.ch <- msgOrErr{nil, ErrTimeout}
	}
	if writing {
		time.AfterFunc(writeGrace, func() {
			c.mu.Lock()
			stuck := c.writing == p.ch
			c.mu.Unlock()
			if stuck {
				c.Close()
			}
		})
	}
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

// Close shuts the connection down; pending and future calls fail. The
// client is marked closed before the connection goes, so that a call the
// teardown ends finds it closed when it returns.
func (c *Client) Close() error {
	c.failAll(ErrClosed)
	return c.conn.Close()
}

// Handler processes one request and returns its response. Returning an
// error sends a wire.Error to the caller.
type Handler func(req wire.Msg) (wire.Msg, error)

// TracedHandler is a Handler that also receives the request's operation
// trace ID (zero for untraced frames), for per-op correlation in server
// stats and slow-op logs.
type TracedHandler func(req wire.Msg, trace uint64) (wire.Msg, error)

// serveBufSize is the server's per-connection read buffer: a request with a
// 16 KiB payload, the paper's small write, fits it whole (one read). Every
// connection holds one, so it is no bigger than that.
const serveBufSize = 20 << 10

// ServeConn reads requests from conn until it closes, dispatching each to h
// on a reused goroutine. If local and remote are non-nil simnet nodes,
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
// the server, and a long-lived daemon eventually runs out of fds. No
// handler goroutine of the connection outlives its return.
func ServeConnTraced(conn io.ReadWriteCloser, h TracedHandler, local, remote *simnet.Node) error {
	defer conn.Close() //nolint:errcheck // already torn down; nothing to report
	var wmu sync.Mutex
	var workers gopool.Pool
	defer workers.Close()
	r := bufio.NewReaderSize(conn, serveBufSize)
	for {
		n, seq, err := readPrefix(r)
		var bp *[]byte
		if err == nil {
			bp, err = readBody(r, conn, n)
		}
		if err != nil {
			return err
		}
		req, trace, err := wire.UnmarshalTraced(*bp)
		workers.Go(func() {
			var resp wire.Msg
			if err != nil {
				// Unknown or corrupt request: answer with an error frame.
				resp = &wire.Error{Text: err.Error()}
			} else {
				out, herr := handleSafely(h, req, trace)
				if herr != nil {
					resp = &wire.Error{Text: herr.Error(), Code: wire.ErrorCodeOf(herr)}
				} else {
					resp = out
				}
			}
			// The response's bulk data (a ReadResp payload) rides the frame
			// by reference. If the modeled link drops the response after the
			// handler ran (work done, reply lost), the client's deadline
			// detects it.
			fr := wire.MarshalFrame(resp, 0)
			if local.Send(remote, int64(8+fr.BodyLen()), time.Time{}) == nil {
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
		})
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
