package client

import (
	"csar/internal/raid"
	"csar/internal/wire"
)

// memberBatch is an encode portion's redundancy members grouped by the
// server that keeps them, one request per server: a stripe's parity units
// go as WriteParity{Stripes}, a mirror's copies as WriteMirror{Spans}.
type memberBatch struct {
	reqs   []wire.Msg   // per server: the request carrying its members; nil where it keeps none
	parity []*[]byte    // per server: the pooled buffer its parity units were computed in; nil for copies
	span   [1]wire.Span // for copies: the portion, which every WriteMirror names whole
}

// flush sends the batch, the dead server's share skipped. A parity buffer
// goes back to the pool once its call has returned; the dead server's is
// left to the garbage collector.
func (b *memberBatch) flush(f *File, dead int, tr uint64) error {
	has := func(i int) bool { return b.reqs[i] != nil && i != dead }
	return f.c.eachServer(len(b.reqs), has, func(i int) error {
		if b.parity != nil {
			defer wire.PutBuf(b.parity[i])
		}
		_, err := f.c.callSrvT(i, b.reqs[i], tr)
		return err
	})
}

// encode returns an encode portion's redundancy members, computed fresh
// from its data alone: nil for RAID0, which keeps none; a mirror's RS(1, 1)
// copies, which are the data itself, each copy server's pieces sent
// straight from p — real bytes under AblateCompute too, and no CPU charged;
// and a parity shape's stripes' parity units.
func (f *File) encode(span raid.Span, p []byte) *memberBatch {
	switch {
	case f.shape.Mirror:
		mb := &memberBatch{reqs: make([]wire.Msg, f.geom.Servers), span: [1]wire.Span{{Off: span.Off, Len: span.Len}}}
		for i, pieces := range bytesBy(f.geom, span.Off, p, f.geom.MirrorServerOf) {
			if len(pieces) > 0 {
				mb.reqs[i] = &wire.WriteMirror{File: f.ref, Spans: mb.span[:], From: pieces}
			}
		}
		return mb
	case f.shape.Parity > 0:
		return f.fullStripeParity(span, p)
	}
	return nil
}

// fullStripeParity computes the parity units of span's whole stripes — one
// XOR unit for RAID5 and Hybrid, m coefficient rows for Reed-Solomon.
// (AblateCompute ships zero bytes without computing, isolating the parity
// CPU cost.) Each unit is computed in place in its server's pooled
// payload, the units of that server's stripes back to back — no per-stripe
// scratch, no copy.
func (f *File) fullStripeParity(span raid.Span, p []byte) *memberBatch {
	g := f.geom
	ss := g.StripeSize()
	su := g.StripeUnit
	units := make([][]byte, g.PU())
	stripes := make([][]int64, g.Servers) // per server: the stripes its units belong to
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			ps := g.ParityServerOfUnit(s, j)
			stripes[ps] = append(stripes[ps], s)
		}
	}
	mb := &memberBatch{reqs: make([]wire.Msg, g.Servers), parity: make([]*[]byte, g.Servers)}
	for ps, list := range stripes {
		if len(list) > 0 {
			mb.parity[ps] = wire.GetBuf(len(list) * int(su))
			mb.reqs[ps] = &wire.WriteParity{File: f.ref, Stripes: list, Data: *mb.parity[ps]}
		}
	}
	var data [][]byte // the stripe's k data units, sliced from p
	if f.compute {
		f.chargeParity(len(units), span.Len)
		data = make([][]byte, g.DataWidth())
	}
	filled := make([]int64, g.Servers) // per server: the bytes of its payload computed so far
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			ps := g.ParityServerOfUnit(s, j)
			units[j] = (*mb.parity[ps])[filled[ps] : filled[ps]+su]
			filled[ps] += su
		}
		if !f.compute {
			for _, u := range units {
				clear(u) // pooled buffers arrive dirty
			}
			continue
		}
		base := g.StripeStart(s) - span.Off
		for u := range data {
			data[u] = p[base+int64(u)*su : base+int64(u+1)*su]
		}
		f.code.EncodeInto(units, data)
	}
	return mb
}
