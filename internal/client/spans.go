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

// splitByMirror partitions the bytes of a logical write into per-server
// payloads addressed to each unit's RAID1 mirror server.
func splitByMirror(g raid.Geometry, off int64, p []byte) payloads {
	return splitBy(g, off, p, g.MirrorServerOf)
}

// splitBy gathers p into one payload per server, routing each unit's piece
// with serverOf. A first pass sizes the payloads exactly.
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

// spanReads holds one span's Read responses by server. An entry is nil where
// the server stores none of the span or the fetch skipped it (a down server).
// The payloads sit in pooled buffers: the consumer releases them once it has
// copied out what it needs.
type spanReads []*wire.ReadResp

// release recycles every response's buffer; the payloads must not be used
// afterward.
func (r spanReads) release() {
	for _, m := range r {
		m.Release()
	}
}

// mergeFromServers reassembles per-server Read responses (each the
// concatenation of that server's pieces, in order) into dst, which holds
// the logical range [off, off+len(dst)). A piece whose server has no
// response is left untouched in dst and reported to missing (if non-nil) for
// the degraded paths to fill from redundancy.
func mergeFromServers(g raid.Geometry, off int64, dst []byte, reads spanReads, missing func(cur, pieceEnd int64)) {
	cursors := make([]int64, g.Servers)
	eachPiece(g, off, int64(len(dst)), func(unit, cur, pieceEnd int64) {
		s := g.ServerOf(unit)
		if r := reads[s]; r != nil {
			n := pieceEnd - cur
			copy(dst[cur-off:pieceEnd-off], r.Data[cursors[s]:cursors[s]+n])
			cursors[s] += n
		} else if missing != nil {
			missing(cur, pieceEnd)
		}
	})
}

// serverPieces returns, for each server, the logical extents of its pieces
// of [off, off+length), in order. Used where the server must be told the
// extents explicitly (overflow writes).
func serverPieces(g raid.Geometry, off, length int64) [][]wire.Span {
	return piecesBy(g, off, length, g.ServerOf)
}

// mirrorPieces is serverPieces keyed by each unit's mirror server.
func mirrorPieces(g raid.Geometry, off, length int64) [][]wire.Span {
	return piecesBy(g, off, length, g.MirrorServerOf)
}

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
