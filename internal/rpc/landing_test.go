package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csar/internal/wire"
)

// TestReadLandsInInto: a Read carrying Into gets a landed response whose
// bytes went straight into Into, over an in-process pipe and over loopback
// TCP (vectored reads), and a response that does not match Into's length
// takes the pooled path with Into untouched.
func TestReadLandsInInto(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		cEnd, sEnd := landingConns(t, tcp)
		go ServeConn(sEnd, func(req wire.Msg) (wire.Msg, error) { //nolint:errcheck
			n := int(req.(*wire.Read).Spans[0].Len)
			resp := wire.NewReadResp(n)
			copy(resp.Data, landingPayload(n))
			return resp, nil
		}, nil, nil)
		c := NewClient(cEnd, nil, nil)
		t.Cleanup(func() { c.Close() })

		p := bytes.Repeat([]byte{landingSentinel}, 300000)
		into := [][]byte{p[:7000], p[7000:7001], nil, p[7001:200000], p[200000:]}
		resp, err := c.Call(&wire.Read{Spans: []wire.Span{{Len: int64(len(p))}}, Into: into})
		if err != nil {
			t.Fatal(err)
		}
		if rr := resp.(*wire.ReadResp); !rr.Landed() || rr.Data != nil {
			t.Fatalf("tcp %v: matching response: landed %v, %d bytes of Data", tcp, rr.Landed(), len(rr.Data))
		}
		if !bytes.Equal(p, landingPayload(len(p))) {
			t.Fatalf("tcp %v: landed bytes differ from the response's", tcp)
		}

		q := bytes.Repeat([]byte{landingSentinel}, 100)
		resp, err = c.Call(&wire.Read{Spans: []wire.Span{{Len: 99}}, Into: [][]byte{q}})
		if err != nil {
			t.Fatal(err)
		}
		if rr := resp.(*wire.ReadResp); rr.Landed() || len(rr.Data) != 99 {
			t.Fatalf("tcp %v: short response: landed %v, %d bytes of Data, want the 99 pooled", tcp, rr.Landed(), len(rr.Data))
		}
		if !bytes.Equal(q, bytes.Repeat([]byte{landingSentinel}, 100)) {
			t.Fatalf("tcp %v: a response of the wrong length wrote into Into", tcp)
		}
	}
}

const landingSentinel = 0xEE

// landingPayload is n response bytes, none of them landingSentinel.
func landingPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 200)
	}
	return b
}

// parkConn is the client end of a connection whose one response is
// scripted. It serves frame up to park bytes, then parks the read that asks
// for more until the connection is closed. Woken, that read stands for a
// read still in progress: it waits until release closes or a grace period
// passes, writes the next late bytes of the frame into its buffer and fails.
// The response is served only once a request has been written, which the
// conn discards.
type parkConn struct {
	frame      []byte
	park, late int
	off        int

	closed, parked, release, done, asked chan struct{}
	closeOnce, parkOnce, askOnce         sync.Once
	left                                 atomic.Bool // the parked read has returned
}

func newParkConn(frame []byte, park, late int) *parkConn {
	return &parkConn{frame: frame, park: park, late: late,
		closed: make(chan struct{}), parked: make(chan struct{}),
		release: make(chan struct{}), done: make(chan struct{}), asked: make(chan struct{})}
}

func (c *parkConn) Read(p []byte) (int, error) {
	<-c.asked
	if c.off < c.park {
		n := copy(p, c.frame[c.off:c.park])
		c.off += n
		return n, nil
	}
	if c.left.Load() {
		return 0, net.ErrClosed
	}
	c.parkOnce.Do(func() { close(c.parked) })
	<-c.closed
	select {
	case <-c.release:
	case <-time.After(100 * time.Millisecond):
	}
	n := copy(p, c.frame[c.off:c.off+c.late])
	c.left.Store(true)
	close(c.done)
	return n, net.ErrClosed
}

func (c *parkConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		c.askOnce.Do(func() { close(c.asked) })
		return len(p), nil
	}
}

func (c *parkConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.askOnce.Do(func() { close(c.asked) })
	return nil
}

// TestLandingDeadlineMidFill holds the ownership rule of a landing read: no
// call returns while the read loop may still write into its slices. The
// response parks mid-payload, straight in the caller's buffer. A deadline
// (or Close) then cuts it off, and the call must return only after the
// parked read has delivered its last bytes and the loop has left the
// buffer: the late bytes are already in place when the call returns, and a
// sentinel the caller writes right after survives the rest of the frame.
func TestLandingDeadlineMidFill(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(c *Client, req *wire.Read, pc *parkConn) error
		want error
	}{
		{"deadline", func(c *Client, req *wire.Read, _ *parkConn) error {
			_, err := c.CallTraced(req, 0, 30*time.Millisecond)
			return err
		}, ErrTimeout},
		{"close", func(c *Client, req *wire.Read, pc *parkConn) error {
			errc := make(chan error, 1)
			go func() {
				_, err := c.Call(req)
				errc <- err
			}()
			<-pc.parked
			c.Close()
			return <-errc
		}, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const size, fill, late = 24 << 10, 2000, 1000
			fr := wire.MarshalFrame(&wire.ReadResp{Data: landingPayload(size)}, 0)
			frame := make([]byte, 8, 8+fr.BodyLen())
			frame = append(append(frame, fr.Head()...), fr.Payload...)
			fr.Free()
			putPrefix(frame, 1) // the first call's sequence number
			head := 8 + wire.ReadRespHead
			// The parked read asks for the rest of the first piece, larger
			// than the read loop's buffer, so it reads into p itself.
			pc := newParkConn(frame, head+fill, late)
			c := NewClient(pc, nil, nil)
			t.Cleanup(func() { c.Close() })

			p := bytes.Repeat([]byte{landingSentinel}, size)
			req := &wire.Read{Into: [][]byte{p[:16<<10], p[16<<10:]}}
			err := tc.call(c, req, pc)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !pc.left.Load() {
				t.Fatal("the call returned while the read loop was still reading into its buffer")
			}
			if !bytes.Equal(p[:fill+late], landingPayload(size)[:fill+late]) {
				t.Fatal("the bytes the landing read delivered are not in place at return")
			}
			for i := range p {
				p[i] = 0x5A
			}
			close(pc.release)
			<-pc.done
			if _, err := c.Call(&wire.Ping{}); !errors.Is(err, ErrClosed) || !c.Closed() {
				t.Fatalf("call after the cut-off landing: %v, want ErrClosed", err)
			}
			if !bytes.Equal(p, bytes.Repeat([]byte{0x5A}, size)) {
				t.Fatal("the read loop wrote into the buffer after the call returned")
			}
		})
	}
}

// putPrefix stamps a frame's transport header: its length and seq.
func putPrefix(frame []byte, seq uint32) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint32(frame[4:], seq)
}

// FuzzLanding sends random sequences of response frames to Reads carrying
// Into over net.Pipe: matching, of the wrong kind, of the wrong length,
// error frames, late frames after an abandon, and truncated frames. A
// matching frame must fill Into exactly and arrive landed; no other frame
// may write a byte of Into; a truncated frame fails its call, having landed
// at most a prefix of its bytes. Nothing panics.
//
// Each script also plays the send side (runSendScript): writes sent from
// the caller's slice over a connection that parks or fails at a chosen
// byte of the request. No call returns while its writer is inside the
// frame, and no byte of the caller's slice is read after the return.
func FuzzLanding(f *testing.F) {
	f.Add([]byte{0, 7, 3})                             // one matching frame
	f.Add([]byte{0x20, 40, 90, 1, 3, 3, 2, 9, 9})      // three pieces; wrong kind; wrong length
	f.Add([]byte{3, 5, 5, 4, 200, 17, 0, 0, 0})        // error frame; late frame; an empty Into
	f.Add([]byte{4, 1, 1, 0x10, 50, 50, 5, 66, 240})   // late, matching, truncated mid-payload
	f.Add([]byte{0x22, 255, 255, 5, 2, 0})             // large pieces; truncated in the prefix
	f.Add([]byte{2, 0, 0, 0x12, 33, 77, 0x14, 90, 10}) // wrong length, then the same for two pieces
	// Send side: parked then closed, then let through late past a deadline,
	// then let through with none, then failed — each at a different byte.
	f.Add([]byte{0x10, 9, 200, 0x21, 120, 7, 2, 77, 31, 3, 250, 250})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 1, 0, 2}) // failed at the first byte; parked further on; late in the prefix
	f.Add([]byte{0x42, 7, 3, 0x84, 40, 91})  // a mirror-store and a parity-store read, matching, landed
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, tcp := range []bool{false, true} {
			runLandingScript(t, script, tcp)
		}
		runSendScript(t, script)
	})
}

// runSendScript plays one FuzzLanding script on the send side: three bytes
// a step, an op and two parameters, each step a WriteData sent from a
// caller's slice, in pieces, over a fresh connection that stalls at a byte
// of the request the parameters pick. By op: the stalled write is parked
// and the client closed under it; parked past the call's deadline, then let
// through — a late write finishes, the call returns ErrTimeout and the
// connection stays usable; parked and let through with no deadline, and
// applied whole; or failed there, which breaks the connection. Whatever
// happens, the call returns only once its writer has left the frame, and
// the caller's slice, overwritten at return, is never read again.
func runSendScript(t *testing.T, script []byte) {
	if len(script) > 3*8 {
		script = script[:3*8]
	}
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := script[0], int(script[1]), int(script[2])
		p := patternOf(1+(a*(b+1)*37)%9000, byte(a))
		want := bytes.Clone(p)
		req := &wire.WriteData{File: wire.FileRef{ID: 1}, Spans: []wire.Span{{Len: int64(len(p))}}}
		for rest, n := p, 1+int(op>>4)%3; len(rest) > 0; n-- {
			k := len(rest)
			if n > 1 {
				k = len(rest) / n
			}
			req.From, rest = append(req.From, rest[:k]), rest[k:]
		}
		cEnd, sEnd := net.Pipe()
		log := serveWrites(sEnd)
		mode := op % 4
		spy := newStallConn(cEnd, (a*256+b)%frameLen(req), mode == 3)
		c := NewClient(spy, nil, nil)
		timeout := time.Duration(0)
		if mode == 1 {
			timeout = 5 * time.Millisecond
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.CallTraced(req, 0, timeout)
			spy.returned.Store(true)
			done <- err
		}()
		var err error
		switch mode {
		case 0, 1, 2:
			<-spy.parked
			if mode == 0 {
				c.Close()
			}
			if mode == 1 {
				time.Sleep(4 * timeout)
			}
			select {
			case err = <-done:
				if mode != 0 {
					t.Fatalf("op %d: the call returned (%v) while its frame was parked", op, err)
				}
			default:
			}
			if mode != 0 {
				close(spy.release)
			}
		}
		if err == nil {
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("op %d: the call never returned", op)
			}
		}
		if spy.inside.Load() {
			t.Fatalf("op %d: the call returned while its writer was inside the frame", op)
		}
		for i := range p {
			p[i] = landingSentinel
		}
		if mode == 0 {
			close(spy.release)
		}
		spy.settle()
		if spy.late.Load() {
			t.Fatalf("op %d: the caller's slice was read after the call returned", op)
		}
		spy.returned.Store(false)
		switch mode {
		case 0, 3:
			if err == nil || !c.Closed() {
				t.Fatalf("op %d: stalled at byte %d: err %v, closed %v; want an error and a closed client", op, spy.at, err, c.Closed())
			}
		case 1:
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("op %d: late write: %v, want ErrTimeout", op, err)
			}
			if _, err := c.Call(&wire.Ping{}); err != nil {
				t.Fatalf("op %d: call after a late write: %v", op, err)
			}
		case 2:
			if err != nil {
				t.Fatalf("op %d: the write let through: %v", op, err)
			}
		}
		c.Close()
		<-log.done
		if got, ok := log.get(1); ok && !bytes.Equal(got, want) || mode == 2 && !ok {
			t.Fatalf("op %d: the server applied %d bytes (ok %v) of a %d-byte write, not the caller's bytes at the call", op, len(got), ok, len(want))
		}
	}
}

// loopback is one listener for the TCP runs of a process's fuzz scripts.
var loopback = sync.OnceValues(func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") })

// landingConns returns the two ends of a connection: an in-process pipe, or
// loopback TCP, where a landing takes the vectored-read path.
func landingConns(t *testing.T, tcp bool) (client, server net.Conn) {
	if !tcp {
		client, server = net.Pipe()
		return client, server
	}
	ln, err := loopback()
	if err != nil {
		t.Fatal(err)
	}
	if client, err = net.Dial("tcp", ln.Addr().String()); err == nil {
		server, err = ln.Accept()
	}
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// runLandingScript plays one FuzzLanding script: three bytes a step, an op
// and two parameters; the op's top bits pick the store the Read names. Response frames go out in chunks, so over TCP a
// landing meets partial reads at any offset.
func runLandingScript(t *testing.T, script []byte, tcp bool) {
	if len(script) > 3*8 {
		script = script[:3*8]
	}
	cEnd, sEnd := landingConns(t, tcp)
	c := NewClient(cEnd, nil, nil)
	defer c.Close()
	defer sEnd.Close()
	sr := bufio.NewReader(sEnd)
	type late struct{ p, before []byte }
	var lates []late
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := script[0], int(script[1]), int(script[2])
		sizes := make([]int, 1+int(op>>4)%3)
		for i := range sizes {
			sizes[i] = (a*(b+i+1)*37 + i) % 9000
		}
		total := 0
		for _, n := range sizes {
			total += n
		}
		p := bytes.Repeat([]byte{landingSentinel}, total)
		into := make([][]byte, len(sizes))
		for i, at := 0, 0; i < len(sizes); at, i = at+sizes[i], i+1 {
			into[i] = p[at : at+sizes[i]]
		}
		timeout := 5 * time.Second
		if op%6 == 4 {
			timeout = time.Millisecond
		}
		type result struct {
			resp wire.Msg
			err  error
		}
		done := make(chan result, 1)
		store := (op >> 6) % 3 // data, mirror or parity: the landing is the same
		go func() {
			resp, err := c.CallTraced(&wire.Read{Store: store, Into: into}, 0, timeout)
			done <- result{resp, err}
		}()
		n, seq, err := readPrefix(sr)
		var bp *[]byte
		if err == nil {
			bp, err = readBody(sr, sEnd, n)
		}
		if err != nil {
			t.Fatalf("reading the request: %v", err)
		}
		if req, err := wire.Unmarshal(*bp); err != nil || req.(*wire.Read).Store != store {
			t.Fatalf("the request decoded as %+v (%v), want a read of store %d", req, err, store)
		}
		wire.PutBuf(bp)
		payload := landingPayload(total)
		untouched := bytes.Repeat([]byte{landingSentinel}, total)
		frame := func(m wire.Msg, seq uint32) []byte {
			var b bytes.Buffer
			fr := wire.MarshalFrame(m, 0)
			writeFrame(&b, seq, &fr, new(net.Buffers)) //nolint:errcheck // a bytes.Buffer
			fr.Free()
			return b.Bytes()
		}
		chunk := 1 + (a*131+b*7)%6000
		send := func(m wire.Msg, seq uint32) {
			for f := frame(m, seq); len(f) > 0; f = f[min(len(f), chunk):] {
				if _, err := sEnd.Write(f[:min(len(f), chunk)]); err != nil {
					t.Fatalf("writing the response: %v", err)
				}
			}
		}
		switch op % 6 {
		case 0: // matching; sent landed, its frame must be the same
			var resp wire.Msg = &wire.ReadResp{Data: payload}
			if b%2 == 1 {
				resp = wire.LandedReadResp([][]byte{payload[:total/3], payload[total/3:]})
			}
			send(resp, seq)
			r := <-done
			if r.err != nil {
				t.Fatalf("matching frame: %v", r.err)
			}
			if rr, ok := r.resp.(*wire.ReadResp); !ok || !rr.Landed() || !bytes.Equal(p, payload) {
				t.Fatalf("matching frame: got %T, Into filled %v", r.resp, bytes.Equal(p, payload))
			}
		case 1: // wrong kind
			send(&wire.OK{}, seq)
			if r := <-done; r.err != nil {
				t.Fatalf("OK frame: %v", r.err)
			}
		case 2: // wrong length
			n := total + 1
			if total > 0 && a%2 == 0 {
				n = total - 1
			}
			send(&wire.ReadResp{Data: landingPayload(n)}, seq)
			r := <-done
			if rr, ok := r.resp.(*wire.ReadResp); r.err != nil || !ok || rr.Landed() || len(rr.Data) != n {
				t.Fatalf("%d-byte frame for %d bytes of Into: %T, %v", n, total, r.resp, r.err)
			}
		case 3: // error frame
			send(&wire.Error{Text: "refused"}, seq)
			if r := <-done; r.err == nil || r.err.Error() != "refused" {
				t.Fatalf("error frame: %v", r.err)
			}
		case 4: // late, after the call was abandoned
			if r := <-done; !errors.Is(r.err, ErrTimeout) {
				t.Fatalf("abandoned call: %v", r.err)
			}
			send(&wire.ReadResp{Data: payload}, seq)
			lates = append(lates, late{p, untouched})
			continue
		case 5: // truncated: the frame stops partway and the connection ends
			whole := frame(&wire.ReadResp{Data: payload}, seq)
			cut := (a*256 + b) % len(whole)
			sEnd.Write(whole[:cut]) //nolint:errcheck // checked through the call
			sEnd.Close()
			if r := <-done; !errors.Is(r.err, ErrClosed) {
				t.Fatalf("frame cut at %d of %d: %v", cut, len(whole), r.err)
			}
			for i := range p {
				if p[i] != landingSentinel && p[i] != payload[i] {
					t.Fatalf("frame cut at %d: byte %d of Into is %#x, neither untouched nor the payload's", cut, i, p[i])
				}
			}
			return
		}
		if op%6 != 0 && !bytes.Equal(p, untouched) {
			t.Fatalf("op %d wrote into Into", op%6)
		}
	}
	// A call behind every late frame: once it is answered, the read loop
	// has dealt with them all.
	pinged := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Ping{})
		pinged <- err
	}()
	n, seq, err := readPrefix(sr)
	var bp *[]byte
	if err == nil {
		bp, err = readBody(sr, sEnd, n)
	}
	if err != nil {
		t.Fatalf("reading the last request: %v", err)
	}
	wire.PutBuf(bp)
	fr := wire.MarshalFrame(&wire.OK{}, 0)
	writeFrame(sEnd, seq, &fr, new(net.Buffers)) //nolint:errcheck // checked through the call
	fr.Free()
	if err := <-pinged; err != nil {
		t.Fatalf("the call behind the frames: %v", err)
	}
	for i, l := range lates {
		if !bytes.Equal(l.p, l.before) {
			t.Fatalf("late frame %d wrote into the abandoned call's Into", i)
		}
	}
}
