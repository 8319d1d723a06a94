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
// the wire immediately after the head. Vec is Payload held as pieces, for a
// bulk field that is not one slice: a write request's From, a landed
// ReadResp. At most one of the two is set, and neither is ever the frame's:
// they stay the sender's, who must leave them alone until the frame has
// been written. The caller owns the frame until it calls Free, which
// recycles the head buffer; neither Head(), Payload nor Vec may be retained
// afterward. Free never touches a payload, so a frame can be marshaled and
// freed just to measure it, with the message still on its way to a
// consumer.
type Frame struct {
	buf     []byte // [FramePrefix reserved bytes][marshaled head]
	Payload []byte
	Vec     [][]byte
	c       *Codec // the pooled encoder that wrote buf, reused on Free; nil for unpooled frames
}

// Head returns the marshaled message bytes (without the transport prefix).
func (f *Frame) Head() []byte { return f.buf[FramePrefix:] }

// HeadWithPrefix returns the head buffer including the FramePrefix reserved
// bytes at the front, for the transport to fill with its own header.
func (f *Frame) HeadWithPrefix() []byte { return f.buf }

// BodyLen returns the length of the marshaled message including the
// by-reference payload (what a contiguous Marshal would have produced).
func (f *Frame) BodyLen() int {
	n := len(f.buf) - FramePrefix + len(f.Payload)
	for _, p := range f.Vec {
		n += len(p)
	}
	return n
}

// Free returns the head buffer to its pool. The frame must not be used
// again.
func (f *Frame) Free() {
	if f.c != nil && cap(f.buf) <= maxPooledHead {
		if poisonPooledBuffers.Load() {
			poison(f.buf[:cap(f.buf)])
		}
		// The encoder rides along with its buffer, so neither MarshalFrame
		// nor Put allocates.
		*f.c = Codec{Buf: f.buf[:0]}
		headPool.Put(f.c)
	}
	f.buf, f.Payload, f.Vec, f.c = nil, nil, nil, nil
}

var headPool = sync.Pool{New: func() any {
	return &Codec{Buf: make([]byte, 0, 512)}
}}

// MarshalFrame serializes a message into a pooled scatter-gather frame.
// A zero trace produces the plain (untraced) encoding. The message's bulk
// byte field — its last, when at least payloadSplitMin long — is carried in
// Frame.Payload by reference, so Head followed by Payload is exactly what
// Marshal produces (TestMarshalFrameMatchesMarshal holds every kind to
// that). A field held as pieces rides in Frame.Vec instead. The caller must
// not mutate the Msg's data until the frame has been written and freed.
func MarshalFrame(m Msg, trace uint64) Frame {
	c := headPool.Get().(*Codec)
	var prefix [FramePrefix]byte
	c.Buf, c.split = append(c.Buf[:0], prefix[:]...), true
	encode(c, m, trace)
	fr := Frame{buf: c.Buf, c: c}
	if c.payload != nil {
		fr.Payload = *c.payload
	}
	fr.Vec = c.vec
	return fr
}
