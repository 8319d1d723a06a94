package client

import (
	"csar/internal/raid"
	"csar/internal/wire"
)

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

// bytesBy returns, for each server, the slices of p — which holds the
// logical range [off, off+len(p)) — that its pieces cover, each unit's
// piece routed by serverOf (its own server, or MirrorServerOf for the copy
// a mirror or an overflow mirror keeps), in the order the server consumes
// them: what a write request sends (its From) and where a Read response's
// bytes belong (its Into). Both placements go round-robin over the servers,
// so none holds more than its share of the units crossed, rounded up; one
// backing array serves all.
func bytesBy(g raid.Geometry, off int64, p []byte, serverOf func(unit int64) int) [][][]byte {
	end := off + int64(len(p))
	units := g.UnitOf(end-1) - g.UnitOf(off) + 1
	per := int((units + int64(g.Servers) - 1) / int64(g.Servers))
	flat := make([][]byte, g.Servers*per)
	out := make([][][]byte, g.Servers)
	for s := range out {
		out[s] = flat[s*per : s*per : (s+1)*per]
	}
	eachPiece(g, off, int64(len(p)), func(unit, cur, pieceEnd int64) {
		s := serverOf(unit)
		out[s] = append(out[s], p[cur-off:pieceEnd-off])
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
