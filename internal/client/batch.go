package client

import (
	"csar/internal/raid"
	"csar/internal/wire"
)

// memberBatch is an encode portion's redundancy members grouped by the
// server that keeps them, one request per server at flush, by the members'
// store: a stripe's parity units go as WriteParity{Stripes}, a mirror's
// copies as WriteMirror{Spans}.
type memberBatch struct {
	store   raid.Store
	spans   []wire.Span // for copies: the portion, which every WriteMirror names whole
	stripes [][]int64   // for parity units, per server: the stripes they belong to
	data    payloads
}

func (b *memberBatch) flush(f *File, dead int, tr uint64) error {
	has := func(i int) bool { return b.data[i] != nil && i != dead }
	return f.c.eachServer(len(b.data), has, func(i int) error {
		var m wire.Msg
		if b.store == raid.MirrorStore {
			m = owned(&wire.WriteMirror{File: f.ref, Spans: b.spans, Data: *b.data[i]}, b.data[i])
		} else {
			m = owned(&wire.WriteParity{File: f.ref, Stripes: b.stripes[i], Data: *b.data[i]}, b.data[i])
		}
		_, err := f.c.callSrvT(i, m, tr)
		return err
	})
}

// encode returns an encode portion's redundancy members, computed fresh
// from its data alone: nil for RAID0, which keeps none; a mirror's RS(1, 1)
// copies, which are the data itself gathered straight into each copy
// server's payload — real bytes under AblateCompute too, and no CPU charged;
// and a parity shape's stripes' parity units.
func (f *File) encode(span raid.Span, p []byte) *memberBatch {
	switch {
	case f.shape.Mirror:
		spans := []wire.Span{{Off: span.Off, Len: span.Len}}
		return &memberBatch{store: raid.MirrorStore, spans: spans, data: splitBy(f.geom, span.Off, p, f.geom.MirrorServerOf)}
	case f.shape.Parity > 0:
		return f.fullStripeParity(span, p)
	}
	return nil
}

// fullStripeParity computes the parity units of span's whole stripes — one
// XOR unit for RAID5 and Hybrid, m coefficient rows for Reed-Solomon.
// (AblateCompute ships zero bytes without computing, isolating the parity
// CPU cost.) Each unit is computed in place in the payload its server's
// WriteParity will own — no per-stripe scratch, no copy.
func (f *File) fullStripeParity(span raid.Span, p []byte) *memberBatch {
	g := f.geom
	ss := g.StripeSize()
	su := g.StripeUnit
	units := make([][]byte, g.PU())
	sizes := make([]int, g.Servers)
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			sizes[g.ParityServerOfUnit(s, j)] += int(su)
		}
	}
	mb := &memberBatch{store: raid.ParityStore, stripes: make([][]int64, g.Servers), data: newPayloads(sizes)}
	var data [][]byte // the stripe's k data units, sliced from p
	if f.compute {
		f.chargeParity(len(units), span.Len)
		data = make([][]byte, g.DataWidth())
	}
	for s := span.Off / ss; s < span.End()/ss; s++ {
		for j := range units {
			ps := g.ParityServerOfUnit(s, j)
			mb.stripes[ps] = append(mb.stripes[ps], s)
			units[j] = mb.data.grow(ps, int(su))
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
