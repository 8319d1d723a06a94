package client

import (
	"csar/internal/raid"
	"csar/internal/wire"
)

// splitByServer partitions the bytes of a logical write [off, off+len(p))
// into per-server payloads, in the iteration order the servers themselves
// use (raid.Geometry.ToLocal), so a server receiving the whole span plus its
// payload can consume it sequentially.
func splitByServer(g raid.Geometry, off int64, p []byte) [][]byte {
	return splitBy(g, off, p, g.ServerOf)
}

// splitByMirror partitions the bytes of a logical write into per-server
// payloads addressed to each unit's RAID1 mirror server.
func splitByMirror(g raid.Geometry, off int64, p []byte) [][]byte {
	return splitBy(g, off, p, g.MirrorServerOf)
}

// splitBy gathers p into one payload per server, routing each unit's piece
// with serverOf. A first pass sizes the payloads exactly, so filling them
// never re-copies one through append growth.
func splitBy(g raid.Geometry, off int64, p []byte, serverOf func(unit int64) int) [][]byte {
	end := off + int64(len(p))
	walk := func(fn func(s int, piece []byte)) {
		for cur := off; cur < end; {
			b := g.UnitOf(cur)
			pieceEnd := min(g.UnitStart(b+1), end)
			fn(serverOf(b), p[cur-off:pieceEnd-off])
			cur = pieceEnd
		}
	}
	sizes := make([]int, g.Servers)
	walk(func(s int, piece []byte) { sizes[s] += len(piece) })
	out := make([][]byte, g.Servers)
	for s, n := range sizes {
		if n > 0 {
			out[s] = make([]byte, 0, n)
		}
	}
	walk(func(s int, piece []byte) { out[s] = append(out[s], piece...) })
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
	end := off + int64(len(dst))
	for cur := off; cur < end; {
		b := g.UnitOf(cur)
		pieceEnd := min(g.UnitStart(b+1), end)
		s := g.ServerOf(b)
		if r := reads[s]; r != nil {
			n := pieceEnd - cur
			copy(dst[cur-off:pieceEnd-off], r.Data[cursors[s]:cursors[s]+n])
			cursors[s] += n
		} else if missing != nil {
			missing(cur, pieceEnd)
		}
		cur = pieceEnd
	}
}

// serverPieces returns, for each server, the logical extents of its pieces
// of [off, off+length), in order. Used where the server must be told the
// extents explicitly (overflow writes).
func serverPieces(g raid.Geometry, off, length int64) [][]wire.Span {
	out := make([][]wire.Span, g.Servers)
	g0 := g
	end := off + length
	for cur := off; cur < end; {
		b := g0.UnitOf(cur)
		pieceEnd := g0.UnitStart(b + 1)
		if pieceEnd > end {
			pieceEnd = end
		}
		s := g0.ServerOf(b)
		out[s] = appendSpan(out[s], cur, pieceEnd-cur)
		cur = pieceEnd
	}
	return out
}

// mirrorPieces is serverPieces keyed by each unit's mirror server.
func mirrorPieces(g raid.Geometry, off, length int64) [][]wire.Span {
	out := make([][]wire.Span, g.Servers)
	end := off + length
	for cur := off; cur < end; {
		b := g.UnitOf(cur)
		pieceEnd := g.UnitStart(b + 1)
		if pieceEnd > end {
			pieceEnd = end
		}
		s := g.MirrorServerOf(b)
		out[s] = appendSpan(out[s], cur, pieceEnd-cur)
		cur = pieceEnd
	}
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
