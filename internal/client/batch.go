package client

import (
	"fmt"

	"csar/internal/core"
	"csar/internal/raid"
	"csar/internal/wire"
)

// writeBatch coalesces the data units of several write-plan portions into
// one multi-span WriteData per server, so the batched RPC shape the rebuild
// path introduced is the default data path: a write whose plan has several
// in-place portions costs each data server one request, not one per
// portion.
type writeBatch struct {
	g     raid.Geometry
	parts []batchPart   // the portions, in plan order
	spans [][]wire.Span // per server: spans of the portions it stores part of
	size  []int         // per server: total payload bytes
}

// batchPart is one portion: its span and its bytes in the caller's buffer,
// which is only read until flush has gathered it.
type batchPart struct {
	span raid.Span
	p    []byte
}

func newWriteBatch(g raid.Geometry) *writeBatch {
	return &writeBatch{
		g:     g,
		spans: make([][]wire.Span, g.Servers),
		size:  make([]int, g.Servers),
	}
}

// add registers one portion: span and its bytes p.
func (b *writeBatch) add(span raid.Span, p []byte) {
	n := make([]int, b.g.Servers)
	eachPiece(b.g, span.Off, span.Len, func(unit, cur, pieceEnd int64) {
		n[b.g.ServerOf(unit)] += int(pieceEnd - cur)
	})
	for s, k := range n {
		if k > 0 {
			b.spans[s] = append(b.spans[s], wire.Span{Off: span.Off, Len: span.Len})
			b.size[s] += k
		}
	}
	b.parts = append(b.parts, batchPart{span, p})
}

func (b *writeBatch) empty() bool { return len(b.parts) == 0 }

// flush gathers every portion straight into one payload per server and
// issues one multi-span WriteData per contributing server, skipping dead.
func (b *writeBatch) flush(f *File, dead int, tr uint64) error {
	data := newPayloads(b.size)
	for _, pt := range b.parts {
		off := pt.span.Off
		eachPiece(b.g, off, pt.span.Len, func(unit, cur, pieceEnd int64) {
			copy(data.grow(b.g.ServerOf(unit), int(pieceEnd-cur)), pt.p[cur-off:pieceEnd-off])
		})
	}
	return f.c.eachServer(b.g.Servers, func(i int) error {
		if data[i] == nil || i == dead {
			return nil
		}
		_, err := f.c.callSrvT(i, owned(&wire.WriteData{
			File:  f.ref,
			Spans: b.spans[i],
			Data:  *data[i],
		}, data[i]), tr)
		return err
	})
}

// parityBatch is a full-stripe portion's parity blocks grouped by parity
// server: one WriteParity per server at flush.
type parityBatch struct {
	g       raid.Geometry
	stripes [][]int64
	data    payloads
}

func (b *parityBatch) flush(f *File, dead int, tr uint64) error {
	return f.c.eachServer(b.g.Servers, func(i int) error {
		if len(b.stripes[i]) == 0 || i == dead {
			return nil
		}
		_, err := f.c.callSrvT(i, owned(&wire.WriteParity{
			File:    f.ref,
			Stripes: b.stripes[i],
			Data:    *b.data[i],
		}, b.data[i]), tr)
		return err
	})
}

// fullStripeParity computes span's per-stripe parity units — one XOR unit
// for RAID5 and Hybrid, m coefficient rows for Reed-Solomon. (RAID5-npc ships
// zero bytes without computing, isolating the parity CPU cost.) Each unit is
// computed in place in the payload its server's WriteParity will own — no
// per-stripe scratch, no copy.
func (f *File) fullStripeParity(span raid.Span, p []byte) (*parityBatch, error) {
	g := f.geom
	ss := g.StripeSize()
	su := int(g.StripeUnit)
	if span.Off%ss != 0 || span.Len%ss != 0 {
		return nil, fmt.Errorf("client: full-stripe span [%d,%d) not stripe-aligned", span.Off, span.End())
	}
	units := make([][]byte, g.PU())
	sizes := make([]int, g.Servers)
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			sizes[g.ParityServerOfUnit(s, j)] += su
		}
	}
	pb := &parityBatch{g: g, stripes: make([][]int64, g.Servers), data: newPayloads(sizes)}
	if f.compute {
		f.chargeParity(len(units), span.Len)
	}
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			ps := g.ParityServerOfUnit(s, j)
			pb.stripes[ps] = append(pb.stripes[ps], s)
			units[j] = pb.data.grow(ps, su)
		}
		if f.compute {
			base := g.StripeStart(s) - span.Off
			core.StripeParity(g, f.code, p[base:base+ss], units)
		} else {
			for _, u := range units {
				clear(u) // pooled buffers arrive dirty
			}
		}
	}
	return pb, nil
}
