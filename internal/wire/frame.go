package wire

import "sync"

// FramePrefix bytes are reserved at the front of every Frame buffer so the
// transport can prepend its length+sequence header in place and put the
// whole head on the wire with a single write, no copy.
const FramePrefix = 8

// payloadSplitMin is the smallest Bytes payload worth passing by reference
// in Frame.Payload. Below it, copying into the head buffer is cheaper than
// a second writev element.
const payloadSplitMin = 2048

// maxPooledHead caps the head buffers kept warm in the pool; oversized
// one-off heads (huge span lists, stats dumps) are left to the GC.
const maxPooledHead = 64 << 10

// Frame is the scatter-gather form of a marshaled message.
//
// Head() is the encoded message (kind byte, optional trace header,
// metadata fields) in a pooled buffer; Payload is the message's bulk data
// field passed by reference — it aliases the Msg's own slice and must hit
// the wire immediately after the head. The caller owns the frame until it
// calls Free, which recycles the head buffer; neither Head() nor Payload
// may be retained afterward. Free never touches data the Msg's sender still
// owns: a frame can be marshaled and freed just to measure it, with the
// message still on its way to a consumer. The one payload Free does recycle
// is one the frame owns — the pooled buffer a write request was gathered
// into and handed over by HoldBuf, or OwnPayload's private copy.
type Frame struct {
	buf     []byte // [FramePrefix reserved bytes][marshaled head]
	Payload []byte
	bp      *[]byte // pool box, reused on Free; nil for unpooled frames
	pp      *[]byte // pooled payload the frame owns; nil if Payload is by-reference
}

// Head returns the marshaled message bytes (without the transport prefix).
func (f *Frame) Head() []byte { return f.buf[FramePrefix:] }

// HeadWithPrefix returns the head buffer including the FramePrefix reserved
// bytes at the front, for the transport to fill with its own header.
func (f *Frame) HeadWithPrefix() []byte { return f.buf }

// BodyLen returns the length of the marshaled message including the
// by-reference payload (what a contiguous Marshal would have produced).
func (f *Frame) BodyLen() int { return len(f.buf) - FramePrefix + len(f.Payload) }

// OwnPayload replaces the frame's by-reference Payload with a private pooled
// copy. A transport whose write can outlive the caller — rpc abandons a
// timed-out call while its send goroutine is still streaming the frame —
// must take ownership before returning control, or a caller that reuses its
// buffer after the timeout races the in-flight wire write and the receiver
// can apply a torn payload. Free recycles the copy. A frame whose payload is
// already inlined, or already the frame's own (the sender gathered it into a
// buffer it handed over with the message), is untouched: only a caller that
// passed its own slice pays for the copy.
func (f *Frame) OwnPayload() {
	if len(f.Payload) == 0 || f.pp != nil {
		return
	}
	pp := GetBuf(len(f.Payload))
	copy(*pp, f.Payload)
	f.Payload = *pp
	f.pp = pp
}

// Free returns the head buffer and any payload the frame owns to their pools.
// The frame must not be used again.
func (f *Frame) Free() {
	if f.bp != nil && cap(f.buf) <= maxPooledHead {
		if poisonPooledBuffers.Load() {
			poison(f.buf[:cap(f.buf)])
		}
		*f.bp = f.buf[:0] // the box rides along, so Put allocates nothing
		headPool.Put(f.bp)
	}
	PutBuf(f.pp)
	f.buf, f.Payload, f.bp, f.pp = nil, nil, nil, nil
}

var headPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// MarshalFrame serializes a message into a pooled scatter-gather frame.
// A zero trace produces the plain (untraced) encoding. The message's first
// large byte payload is carried in Frame.Payload by reference — the caller
// must not mutate the Msg's data until the frame has been written and
// freed. A pooled buffer the message holds for that payload (HoldBuf)
// becomes the frame's.
func MarshalFrame(m Msg, trace uint64) Frame {
	bp := headPool.Get().(*[]byte)
	var prefix [FramePrefix]byte
	e := Encoder{Buf: append((*bp)[:0], prefix[:]...), split: true}
	encodeHead(&e, m, trace)
	m.encode(&e)
	if e.Payload != nil && e.splitAt != len(e.Buf) {
		// Fields were encoded after the split payload (the payload is not
		// the message's last field): fold it back in at its position so
		// the wire bytes stay identical to the contiguous encoding.
		tail := len(e.Buf) - e.splitAt
		e.Buf = append(e.Buf, make([]byte, len(e.Payload))...)
		copy(e.Buf[e.splitAt+len(e.Payload):], e.Buf[e.splitAt:e.splitAt+tail])
		copy(e.Buf[e.splitAt:], e.Payload)
		e.Payload = nil
	}
	fr := Frame{buf: e.Buf, Payload: e.Payload, bp: bp}
	if o, ok := m.(interface{ takePayload() *[]byte }); ok {
		fr.pp = o.takePayload()
	}
	return fr
}
