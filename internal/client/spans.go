package client

import (
	"csar/internal/raid"
	"csar/internal/wire"
)

// payloads is one write's bytes gathered by destination: a pooled buffer per
// server, nil where a server gets none. Each buffer is made for exactly one
// message, which takes it with owned and hands it to the frame it is sent in:
// the gather is the sender's private copy, recycled when the send finishes
// whether or not the call was abandoned by then. A buffer no message took —
// a dead server's share — is left to the garbage collector.
type payloads []*[]byte

// newPayloads returns an empty pooled buffer of capacity sizes[s] for every
// server with a non-zero size.
func newPayloads(sizes []int) payloads {
	out := make(payloads, len(sizes))
	for s, n := range sizes {
		if n > 0 {
			out[s] = wire.GetBuf(n)
			*out[s] = (*out[s])[:0]
		}
	}
	return out
}

// grow extends server s's payload by n bytes and returns the new tail for
// the caller to fill.
func (ps payloads) grow(s, n int) []byte {
	b := *ps[s]
	*ps[s] = b[:len(b)+n]
	return (*ps[s])[len(b):]
}

// owned hands m the pooled payload its Data was gathered into.
func owned[M interface{ HoldBuf(*[]byte) }](m M, bp *[]byte) M {
	m.HoldBuf(bp)
	return m
}

// eachPiece walks the logical range [off, off+length) unit by unit — the
// piece [cur, pieceEnd) of each unit it crosses — in the iteration order the
// servers themselves use (raid.Geometry.ToLocal), so a server receiving its
// pieces concatenated can consume them sequentially.
func eachPiece(g raid.Geometry, off, length int64, fn func(unit, cur, pieceEnd int64)) {
	end := off + length
	for cur := off; cur < end; {
		b := g.UnitOf(cur)
		pieceEnd := min(g.UnitStart(b+1), end)
		fn(b, cur, pieceEnd)
		cur = pieceEnd
	}
}

// splitByServer partitions the bytes of a logical write [off, off+len(p))
// into per-server payloads.
func splitByServer(g raid.Geometry, off int64, p []byte) payloads {
	return splitBy(g, off, p, g.ServerOf)
}

// splitBy gathers p into one payload per server, routing each unit's piece
// with serverOf — its own server, or MirrorServerOf for the copy a mirror
// or an overflow mirror keeps. A first pass sizes the payloads exactly.
func splitBy(g raid.Geometry, off int64, p []byte, serverOf func(unit int64) int) payloads {
	sizes := make([]int, g.Servers)
	eachPiece(g, off, int64(len(p)), func(unit, cur, pieceEnd int64) {
		sizes[serverOf(unit)] += int(pieceEnd - cur)
	})
	out := newPayloads(sizes)
	eachPiece(g, off, int64(len(p)), func(unit, cur, pieceEnd int64) {
		copy(out.grow(serverOf(unit), int(pieceEnd-cur)), p[cur-off:pieceEnd-off])
	})
	return out
}

// spanReads holds Read responses by fetch slot (survivorPlan.fetch). An
// entry is nil where nothing was fetched. The payloads sit in pooled
// buffers: the consumer releases them once it has decoded from them.
type spanReads []*wire.ReadResp

// release recycles every response's buffer; the payloads must not be used
// afterward.
func (r spanReads) release() {
	for _, m := range r {
		m.Release()
	}
}

// landingPieces returns, for each server, the slices of dst — which holds
// the logical range [off, off+len(dst)) — that its pieces fill, in the order
// the server sends them: where a Read response's bytes belong (wire.Read's
// Into). Units go round-robin over the servers, so none holds more than its
// share of the units crossed, rounded up; one backing array serves all.
func landingPieces(g raid.Geometry, off int64, dst []byte) [][][]byte {
	end := off + int64(len(dst))
	units := g.UnitOf(end-1) - g.UnitOf(off) + 1
	per := int((units + int64(g.Servers) - 1) / int64(g.Servers))
	flat := make([][]byte, g.Servers*per)
	out := make([][][]byte, g.Servers)
	for s := range out {
		out[s] = flat[s*per : s*per : (s+1)*per]
	}
	eachPiece(g, off, int64(len(dst)), func(unit, cur, pieceEnd int64) {
		s := g.ServerOf(unit)
		out[s] = append(out[s], dst[cur-off:pieceEnd-off])
	})
	return out
}

// serverPieces returns, for each server, the logical extents of its pieces
// of [off, off+length), in order. Used where the server must be told the
// extents explicitly (overflow writes).
func serverPieces(g raid.Geometry, off, length int64) [][]wire.Span {
	return piecesBy(g, off, length, g.ServerOf)
}

// piecesBy is serverPieces with each unit's piece routed by serverOf.
func piecesBy(g raid.Geometry, off, length int64, serverOf func(unit int64) int) [][]wire.Span {
	out := make([][]wire.Span, g.Servers)
	eachPiece(g, off, length, func(unit, cur, pieceEnd int64) {
		s := serverOf(unit)
		out[s] = appendSpan(out[s], cur, pieceEnd-cur)
	})
	return out
}

// appendSpan appends [off, off+n), merging with the previous span when
// contiguous.
func appendSpan(spans []wire.Span, off, n int64) []wire.Span {
	if k := len(spans); k > 0 && spans[k-1].Off+spans[k-1].Len == off {
		spans[k-1].Len += n
		return spans
	}
	return append(spans, wire.Span{Off: off, Len: n})
}

// bytesFor sums the payload bytes a server receives for pieces of a span.
func bytesFor(spans []wire.Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Len
	}
	return n
}
