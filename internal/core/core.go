// Package core implements the heart of the paper's contribution: the
// arithmetic and planning that let a CSAR client pick, per write and even
// per portion of a single write, between RAID5 parity updates and
// RAID1-style mirrored overflow writes.
//
// Every write is decomposed (raid.Geometry.Decompose) into a leading partial
// stripe, a body of whole stripes, and a trailing partial stripe. The Hybrid
// scheme sends the body down the RAID5 path — parity computed client-side,
// data written in place — and diverts the partial portions to the overflow
// region with a plain mirrored copy, avoiding RAID5's read-modify-write
// entirely. Plain RAID5 instead performs the read-modify-write for the
// partial portions, which is what this package's parity-delta helpers
// implement.
package core

import (
	"fmt"

	"csar/internal/gf256"
	"csar/internal/raid"
	"csar/internal/wire"
)

// PortionMode says how one portion of a write is stored.
type PortionMode int

const (
	// ModeNone marks an empty portion.
	ModeNone PortionMode = iota
	// ModeFullStripe writes data in place with freshly computed parity.
	ModeFullStripe
	// ModeRMW updates data in place with a locked parity read-modify-write.
	ModeRMW
	// ModeOverflow writes the new data (and a mirror copy) to the overflow
	// region, leaving the in-place data and parity untouched.
	ModeOverflow
	// ModeMirrored writes data in place plus a whole mirror copy (RAID1).
	ModeMirrored
	// ModePlain writes data in place with no redundancy (RAID0).
	ModePlain
)

func (m PortionMode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeFullStripe:
		return "full-stripe"
	case ModeRMW:
		return "rmw"
	case ModeOverflow:
		return "overflow"
	case ModeMirrored:
		return "mirrored"
	case ModePlain:
		return "plain"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Portion is one contiguous piece of a planned write.
type Portion struct {
	Span raid.Span
	Mode PortionMode
}

// Plan describes how a write [off, off+length) is performed under a layout
// shape. Portions are contiguous, in file order, and cover the write exactly;
// empty portions are omitted.
type Plan struct {
	Shape    raid.Shape
	Portions []Portion
}

// PlanWrite applies the scheme-selection rule of Section 4 to one write.
//
// A mirrored shape (RAID1) and one without redundancy (RAID0) store every
// byte the same way. A parity shape uses fresh parity for whole stripes and
// read-modify-write for the at-most-two partial stripes — unless it has an
// overflow region, which is how Hybrid selects "the appropriate reliability
// level on the fly": full stripes go to RAID5, partial-stripe portions go to
// the mirrored overflow region.
func PlanWrite(g raid.Geometry, s raid.Shape, off, length int64) Plan {
	p := Plan{Shape: s}
	switch {
	case length <= 0:
	case s.Mirror:
		p.Portions = []Portion{{raid.Span{Off: off, Len: length}, ModeMirrored}}
	case s.Parity == 0:
		p.Portions = []Portion{{raid.Span{Off: off, Len: length}, ModePlain}}
	default:
		partial := ModeRMW
		if s.Overflow {
			partial = ModeOverflow
		}
		head, body, tail := g.Decompose(off, length)
		p.add(head, partial)
		p.add(body, ModeFullStripe)
		p.add(tail, partial)
	}
	return p
}

func (p *Plan) add(s raid.Span, m PortionMode) {
	if s.Len > 0 {
		p.Portions = append(p.Portions, Portion{s, m})
	}
}

// StripeParity computes every parity unit of one full stripe from its data.
// stripeData holds the stripe's k consecutive data units; parity holds m
// buffers of one stripe unit each, zeroed and overwritten. code is the
// stripe's RS(k, m) code: its row 0 is all ones, so the single parity unit
// of RAID5 and Hybrid (m = 1) is the plain XOR of the data units.
func StripeParity(g raid.Geometry, code *gf256.RS, stripeData []byte, parity [][]byte) {
	su := g.StripeUnit
	if int64(len(stripeData)) != g.StripeSize() {
		panic(fmt.Sprintf("core: stripe data is %d bytes, want %d", len(stripeData), g.StripeSize()))
	}
	if len(parity) != g.PU() {
		panic(fmt.Sprintf("core: %d parity buffers, want %d", len(parity), g.PU()))
	}
	data := make([][]byte, g.DataWidth())
	for u := range data {
		data[u] = stripeData[int64(u)*su : int64(u+1)*su]
	}
	code.EncodeInto(parity, data)
}

// UnitRanges returns the parity region of a partial-stripe update of the
// logical range [off, off+length): the within-unit positions of the pieces it
// writes, merged — sorted, disjoint and non-empty. Parity unit j's byte at
// position p encodes the data units' bytes at p, so these are exactly the
// parity bytes the update changes, the same for every j. A range inside one
// unit is itself; one straddling two units is two ranges, or the whole unit
// where their pieces meet; one touching three units or more covers a
// whole unit. A non-positive length has none.
func UnitRanges(g raid.Geometry, off, length int64) []wire.Span {
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
// positions) packed back to back, and is updated in place. Unit 0's
// coefficients are all one, which makes it the RAID5 identity
// parity ^= old ^ new.
func ApplyParityDelta(g raid.Geometry, code *gf256.RS, j int, off int64, oldData, newData []byte, ranges []wire.Span, parity []byte) {
	if len(oldData) != len(newData) {
		panic(fmt.Sprintf("core: old/new length mismatch %d != %d", len(oldData), len(newData)))
	}
	var packed int64
	for _, r := range ranges {
		packed += r.Len
	}
	if int64(len(parity)) != packed {
		panic(fmt.Sprintf("core: parity buffer is %d bytes, its ranges cover %d", len(parity), packed))
	}
	length := int64(len(oldData))
	if length == 0 {
		return
	}
	if g.StripeOf(off) != g.StripeOf(off+length-1) {
		panic(fmt.Sprintf("core: range [%d,%d) crosses a stripe boundary", off, off+length))
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
	panic(fmt.Sprintf("core: in-unit bytes [%d,%d) lie outside the parity ranges %v", pos, pos+n, ranges))
}

// PartialStripes returns the stripe indices of the at-most-two partial
// stripe portions of the write, in ascending order. RAID5 clients lock
// these stripes' parity in this order to avoid deadlock (Section 5.1:
// "the client serializes the reads for the parity blocks, waiting for the
// read for the lower numbered block to complete").
func PartialStripes(g raid.Geometry, off, length int64) []int64 {
	head, _, tail := g.Decompose(off, length)
	var out []int64
	if head.Len > 0 {
		out = append(out, g.StripeOf(head.Off))
	}
	if tail.Len > 0 {
		out = append(out, g.StripeOf(tail.Off))
	}
	return out
}
