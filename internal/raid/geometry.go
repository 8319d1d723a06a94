// Package raid implements the stripe geometry and parity arithmetic shared
// by every CSAR redundancy scheme.
//
// The data layout is identical to the PVFS layout for all schemes: a file is
// split into stripe units of StripeUnit bytes; unit b lives on I/O server
// b mod N at local offset (b/N)*StripeUnit in that server's data file.
//
// For parity schemes, a stripe of k = N-m consecutive data units is
// protected by m parity units (m=1 for RAID5 and Hybrid; m>=1 for
// Reed-Solomon). Stripe s covers data units [s*k, (s+1)*k), which land on
// servers (s*k+i) mod N; its parity units j=0..m-1 rotate onto the m
// remaining servers ((s+1)*k+j) mod N, so every server carries an equal
// share of parity. For m=1 this is exactly the classic layout: parity of
// stripe s on server (N-1-s) mod N at local offset (s/N)*StripeUnit.
//
// For RAID1, the mirror of data unit b is stored on server (b+1) mod N in
// that server's redundancy file, at the same local offset as the primary.
package raid

// Geometry describes the striping parameters of one file.
type Geometry struct {
	// Servers is the number of I/O servers the file is striped over.
	Servers int
	// StripeUnit is the size in bytes of one stripe unit (one block).
	StripeUnit int64
	// ParityUnits is the number of parity units per stripe for parity
	// schemes. Zero means one (the XOR-parity schemes predating
	// Reed-Solomon leave it unset).
	ParityUnits int
}

// PU returns the effective parity-unit count (ParityUnits, defaulted to 1).
func (g Geometry) PU() int {
	if g.ParityUnits < 1 {
		return 1
	}
	return g.ParityUnits
}

// DataWidth returns the number of data units in one parity stripe
// (N minus the parity units).
func (g Geometry) DataWidth() int { return g.Servers - g.PU() }

// StripeSize returns the number of data bytes covered by one parity stripe.
func (g Geometry) StripeSize() int64 { return int64(g.DataWidth()) * g.StripeUnit }

// UnitOf returns the index of the stripe unit containing file offset off.
func (g Geometry) UnitOf(off int64) int64 { return off / g.StripeUnit }

// UnitStart returns the file offset at which stripe unit b begins.
func (g Geometry) UnitStart(b int64) int64 { return b * g.StripeUnit }

// ServerOf returns the I/O server holding data unit b.
func (g Geometry) ServerOf(b int64) int { return int(b % int64(g.Servers)) }

// LocalOffset returns the offset of data unit b within its server's data file.
func (g Geometry) LocalOffset(b int64) int64 { return (b / int64(g.Servers)) * g.StripeUnit }

// MirrorServerOf returns the server holding the RAID1 mirror of data unit b.
func (g Geometry) MirrorServerOf(b int64) int { return int((b + 1) % int64(g.Servers)) }

// ToLocal translates a logical file range into the local data-file range on
// server srv, calling fn once per contiguous local piece with the logical
// start, local start and length of the piece. Only pieces stored on srv are
// visited, in increasing offset order.
func (g Geometry) ToLocal(srv int, off, length int64, fn func(logical, local, n int64)) {
	end := off + length
	for cur := off; cur < end; {
		b := g.UnitOf(cur)
		unitEnd := g.UnitStart(b + 1)
		pieceEnd := min(unitEnd, end)
		if g.ServerOf(b) == srv {
			local := g.LocalOffset(b) + (cur - g.UnitStart(b))
			fn(cur, local, pieceEnd-cur)
		}
		cur = pieceEnd
	}
}

// ToMirrorLocal translates a logical file range into the RAID1 mirror-file
// range on server srv: it visits every contiguous piece whose *mirror* lives
// on srv, with the piece's logical start, its offset in srv's mirror file
// (identical to the primary's data-file offset), and its length.
func (g Geometry) ToMirrorLocal(srv int, off, length int64, fn func(logical, local, n int64)) {
	end := off + length
	for cur := off; cur < end; {
		b := g.UnitOf(cur)
		unitEnd := g.UnitStart(b + 1)
		pieceEnd := min(unitEnd, end)
		if g.MirrorServerOf(b) == srv {
			local := g.LocalOffset(b) + (cur - g.UnitStart(b))
			fn(cur, local, pieceEnd-cur)
		}
		cur = pieceEnd
	}
}

// LocalToLogical translates a local data-file offset on server srv back to
// the logical file offset it stores.
func (g Geometry) LocalToLogical(srv int, local int64) int64 {
	unit := local / g.StripeUnit
	within := local % g.StripeUnit
	b := unit*int64(g.Servers) + int64(srv)
	return g.UnitStart(b) + within
}

// StripeOf returns the parity stripe index containing file offset off.
func (g Geometry) StripeOf(off int64) int64 { return off / g.StripeSize() }

// StripeStart returns the file offset at which parity stripe s begins.
func (g Geometry) StripeStart(s int64) int64 { return s * g.StripeSize() }

// ParityServerOf returns the server storing parity unit 0 of stripe s.
// With one parity unit (the XOR schemes) it is the unique server holding
// none of stripe s's data units: (N-1-s) mod N.
func (g Geometry) ParityServerOf(s int64) int { return g.ParityServerOfUnit(s, 0) }

// ParityServerOfUnit returns the server storing parity unit j of stripe s.
// Stripe s's data units occupy servers (s*k+i) mod N for i in [0,k); its
// parity units continue the rotation onto the remaining m servers, so unit
// j lands on ((s+1)*k+j) mod N. For m=1, j=0 this reduces to the classic
// (N-1-s) mod N placement, keeping the on-disk layout of existing files.
func (g Geometry) ParityServerOfUnit(s int64, j int) int {
	n := int64(g.Servers)
	k := int64(g.DataWidth())
	return int((((s+1)*k+int64(j))%n + n) % n)
}

// MemberOn returns the code index (data 0..k-1, then parity k..k+m-1) of
// the unit of stripe s that server srv stores. A stripe's units continue one
// rotation from its first data unit's server, so with k+m servers every
// server stores exactly one unit of every stripe.
func (g Geometry) MemberOn(srv int, s int64) int {
	n := int64(g.Servers)
	first, _ := g.DataUnitsOf(s)
	return int(((int64(srv)-first)%n + n) % n)
}

// ParityUnitOn reports which parity unit of stripe s server srv stores,
// if any. A server holds at most one parity unit of a given stripe (the
// m parity units of one stripe occupy m distinct servers).
func (g Geometry) ParityUnitOn(srv int, s int64) (j int, ok bool) {
	j = g.MemberOn(srv, s) - g.DataWidth()
	return j, j >= 0
}

// ParityLocalOffset returns the offset of stripe s's parity unit within the
// redundancy file of its (single) parity server. Only meaningful for
// one-parity-unit geometries; multi-parity callers name the server with
// ParityLocalOffsetOn.
func (g Geometry) ParityLocalOffset(s int64) int64 {
	return g.ParityLocalOffsetOn(g.ParityServerOf(s), s)
}

// ParityLocalOffsetOn returns the offset of stripe s's parity unit within
// server srv's redundancy file (srv must hold one of s's parity units).
// Each server owns exactly m parity units out of every N consecutive
// stripes; they are packed densely in stripe order, so the offset is the
// count of parity units srv owns for stripes before s, times the stripe
// unit. For m=1 this is the classic (s/N)*StripeUnit.
func (g Geometry) ParityLocalOffsetOn(srv int, s int64) int64 {
	n := int64(g.Servers)
	period := s / n
	rank := 0
	res := s % n
	for r := int64(0); r < res; r++ {
		if _, ok := g.ParityUnitOn(srv, r); ok {
			rank++
		}
	}
	return (period*int64(g.PU()) + int64(rank)) * g.StripeUnit
}

// DataUnitsOf returns the first data unit of stripe s and the number of data
// units in the stripe.
func (g Geometry) DataUnitsOf(s int64) (first int64, count int) {
	return s * int64(g.DataWidth()), g.DataWidth()
}

// UnitsIn returns the number of stripe units needed to cover a file of the
// given size (zero for empty files).
func (g Geometry) UnitsIn(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return g.UnitOf(size-1) + 1
}

// StripesIn returns the number of parity stripes needed to cover a file of
// the given size (zero for empty files).
func (g Geometry) StripesIn(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return g.StripeOf(size-1) + 1
}

// Span describes a byte range [Off, Off+Len) of the logical file.
type Span struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset of the span.
func (s Span) End() int64 { return s.Off + s.Len }

// Empty reports whether the span covers no bytes.
func (s Span) Empty() bool { return s.Len <= 0 }

// Decompose splits the write [off, off+length) into the three portions of
// the Hybrid rule: a leading partial-stripe span, a body covering an
// integral number of full stripes, and a trailing partial-stripe span.
// Any of the three may be empty. head.Off == off always holds when the
// write is non-empty, and head, body, tail are contiguous.
func (g Geometry) Decompose(off, length int64) (head, body, tail Span) {
	if length <= 0 {
		return Span{Off: off}, Span{Off: off}, Span{Off: off}
	}
	ss := g.StripeSize()
	end := off + length

	bodyStart := off
	if r := off % ss; r != 0 {
		bodyStart = off - r + ss
	}
	bodyEnd := end - end%ss
	if bodyEnd <= bodyStart {
		// No full stripe inside the write. If the write lies within a single
		// stripe it is all head; otherwise it straddles one boundary and
		// splits into head + tail.
		if g.StripeOf(off) == g.StripeOf(end-1) {
			return Span{off, length}, Span{Off: end}, Span{Off: end}
		}
		return Span{off, bodyStart - off}, Span{Off: bodyStart}, Span{bodyStart, end - bodyStart}
	}
	return Span{off, bodyStart - off}, Span{bodyStart, bodyEnd - bodyStart}, Span{bodyEnd, end - bodyEnd}
}

func min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
