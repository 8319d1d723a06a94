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
// a mirror keeps), in the order the server consumes them: what a write
// request sends (its From) and where a Read response's bytes belong (its
// Into). Both placements go round-robin over the servers, so none holds
// more than its share of the units crossed, rounded up; one backing array
// serves all.
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

// overflowReq is one server's request of overflowWrites; n counts, then
// indexes, its pieces of each copy.
type overflowReq struct {
	wire.WriteData
	n    [2]int
	more [1]wire.Part
}

// overflowWrites returns each server's request for a write's overflow
// portions spans, whose bytes p holds from off: a unit's piece goes to its
// server's overflow and to its mirror server's overflow mirror, one span per
// piece (an overflow span may not cross a unit). A request's overflow part
// comes first, its mirror part in More, From their bytes in that order.
func overflowWrites(g raid.Geometry, ref wire.FileRef, spans []raid.Span, off int64, p []byte) []overflowReq {
	reqs := make([]overflowReq, g.Servers)
	pieces := func(fn func(r *overflowReq, c int, cur, end int64)) {
		for _, sp := range spans {
			eachPiece(g, sp.Off, sp.Len, func(u, cur, end int64) {
				fn(&reqs[g.ServerOf(u)], 0, cur, end)
				fn(&reqs[g.MirrorServerOf(u)], 1, cur, end)
			})
		}
	}
	total := 0
	pieces(func(r *overflowReq, c int, _, _ int64) { r.n[c], total = r.n[c]+1, total+1 })
	ext, from := make([]wire.Span, total), make([][]byte, total)
	lo := 0
	for i := range reqs {
		r := &reqs[i]
		mid, hi := lo+r.n[0], lo+r.n[0]+r.n[1]
		r.File, r.From, r.Store, r.Spans = ref, from[lo:hi], wire.StoreOverflow, ext[lo:mid]
		if r.n[0] == 0 {
			r.Store, r.Spans = wire.StoreOverflowMirror, ext[mid:hi]
		} else if r.n[1] > 0 {
			r.more[0] = wire.Part{Store: wire.StoreOverflowMirror, Spans: ext[mid:hi]}
			r.More = r.more[:]
		}
		r.n, lo = [2]int{lo, mid}, hi
	}
	pieces(func(r *overflowReq, c int, cur, end int64) {
		ext[r.n[c]], from[r.n[c]] = wire.Span{Off: cur, Len: end - cur}, p[cur-off:end-off]
		r.n[c]++
	})
	return reqs
}

// bytesFor sums the payload bytes a server receives for pieces of a span.
func bytesFor(spans []wire.Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Len
	}
	return n
}
