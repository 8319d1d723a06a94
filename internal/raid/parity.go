package raid

import (
	"crypto/subtle"
	"fmt"

	"csar/internal/gf256"
	"csar/internal/wire"
)

// XORInto xors src into dst element-wise: dst[i] ^= src[i]. The two slices
// must have the same length. The loop is the standard library's vector XOR;
// the Swift/RAID paper (and Section 3 of the CSAR paper) report that wide
// parity is a significant win over byte-at-a-time, which the parity
// microbenchmark reproduces against the bytewise oracle kept in the tests.
func XORInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("raid: XORInto length mismatch %d != %d", len(dst), len(src)))
	}
	subtle.XORBytes(dst, dst, src)
}

// Parity computes the parity of the given equal-length blocks into dst.
// dst is zeroed first; blocks may be empty, in which case dst is left zero.
func Parity(dst []byte, blocks ...[]byte) {
	clear(dst)
	for _, b := range blocks {
		XORInto(dst, b)
	}
}

// UnitRanges returns the parity region of a partial-stripe update of the
// logical range [off, off+length): the within-unit positions of the pieces it
// writes, merged — sorted, disjoint and non-empty. Parity unit j's byte at
// position p encodes the data units' bytes at p, so these are exactly the
// parity bytes the update changes, the same for every j. A range inside one
// unit is itself; one straddling two units is two ranges, or the whole unit
// where their pieces meet; one touching three units or more covers a
// whole unit. A non-positive length has none.
func (g Geometry) UnitRanges(off, length int64) []wire.Span {
	if length <= 0 {
		return nil
	}
	su := g.StripeUnit
	end := off + length
	first, last := g.UnitOf(off), g.UnitOf(end-1)
	a := off - g.UnitStart(first) // where the first piece starts in its unit
	b := end - g.UnitStart(last)  // where the last piece ends in its unit
	switch {
	case first == last:
		return []wire.Span{{Off: a, Len: length}}
	case last == first+1 && b < a:
		return []wire.Span{{Off: 0, Len: b}, {Off: a, Len: su - a}}
	}
	return []wire.Span{{Off: 0, Len: su}}
}

// ApplyParityDelta folds a partial-stripe update into one existing parity
// unit: parity_j ^= Coef(j,i)*(old_i XOR new_i) for each data unit i the
// logical range [off, off+len(oldData)) touches, at the within-unit
// positions the range occupies. The range must lie within one stripe;
// oldData and newData are its previous and new contents. parity holds unit
// j's bytes in ranges (UnitRanges of the update, or any ranges covering its
// positions) packed back to back, and is updated in place. code is the
// stripe's RS(k, m) code; unit 0's coefficients are all one, which makes it
// the RAID5 identity parity ^= old ^ new.
func (g Geometry) ApplyParityDelta(code *gf256.RS, j int, off int64, oldData, newData []byte, ranges []wire.Span, parity []byte) {
	if len(oldData) != len(newData) {
		panic(fmt.Sprintf("raid: old/new length mismatch %d != %d", len(oldData), len(newData)))
	}
	var packed int64
	for _, r := range ranges {
		packed += r.Len
	}
	if int64(len(parity)) != packed {
		panic(fmt.Sprintf("raid: parity buffer is %d bytes, its ranges cover %d", len(parity), packed))
	}
	length := int64(len(oldData))
	if length == 0 {
		return
	}
	if g.StripeOf(off) != g.StripeOf(off+length-1) {
		panic(fmt.Sprintf("raid: range [%d,%d) crosses a stripe boundary", off, off+length))
	}
	k := int64(g.DataWidth())
	end := off + length
	for cur := off; cur < end; {
		b := g.UnitOf(cur)
		unitStart := g.UnitStart(b)
		pieceEnd := min(unitStart+g.StripeUnit, end)
		n := pieceEnd - cur
		at := packedAt(ranges, cur-unitStart, n) // within-unit == within-parity position
		c := code.Coef(j, int(b%k))
		gf256.MulAddSlice(c, parity[at:at+n], oldData[cur-off:cur-off+n])
		gf256.MulAddSlice(c, parity[at:at+n], newData[cur-off:cur-off+n])
		cur = pieceEnd
	}
}

// packedAt returns where the in-unit bytes [pos, pos+n) sit in a buffer
// holding ranges back to back. They must lie inside one range.
func packedAt(ranges []wire.Span, pos, n int64) int64 {
	var at int64
	for _, r := range ranges {
		if pos >= r.Off && pos+n <= r.Off+r.Len {
			return at + pos - r.Off
		}
		at += r.Len
	}
	panic(fmt.Sprintf("raid: in-unit bytes [%d,%d) lie outside the parity ranges %v", pos, pos+n, ranges))
}
