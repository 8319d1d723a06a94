package raid

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"csar/internal/gf256"
	"csar/internal/wire"
)

func randBlock(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// XORIntoBytewise is the byte-at-a-time XOR: the oracle XORInto is checked
// against and the ablation baseline of the parity microbenchmark.
func XORIntoBytewise(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// TestXORIntoMatchesBytewise pins the vector kernel to the bytewise oracle
// over every short length (vector head and tail handling) and a few long
// ones, at every alignment of both operands within a word.
func TestXORIntoMatchesBytewise(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	lengths := []int{63, 64, 65, 1000, 4096}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff += 3 {
				a := randBlock(r, dOff+n)[dOff:]
				b := randBlock(r, sOff+n)[sOff:]
				w := append([]byte(nil), a...)
				XORInto(a, b)
				XORIntoBytewise(w, b)
				if !bytes.Equal(a, w) {
					t.Fatalf("n=%d dst+%d src+%d: vector and bytewise XOR disagree", n, dOff, sOff)
				}
			}
		}
	}
}

func TestXORIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	XORInto(make([]byte, 4), make([]byte, 5))
}

func TestParityReconstruct(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, width := range []int{1, 2, 4, 6} {
		blocks := make([][]byte, width)
		for i := range blocks {
			blocks[i] = randBlock(r, 512)
		}
		p := make([]byte, 512)
		Parity(p, blocks...)
		// Any single lost block is recoverable from parity + survivors.
		for lost := 0; lost < width; lost++ {
			var survivors [][]byte
			for i, b := range blocks {
				if i != lost {
					survivors = append(survivors, b)
				}
			}
			got := make([]byte, 512)
			Parity(got, append(survivors, p)...)
			if !bytes.Equal(got, blocks[lost]) {
				t.Fatalf("width=%d lost=%d: reconstruction mismatch", width, lost)
			}
		}
	}
}

func TestUpdateParityPartialRegion(t *testing.T) {
	// Updating a sub-range of one block through its slice updates exactly
	// the corresponding parity bytes.
	r := rand.New(rand.NewSource(6))
	a := randBlock(r, 128)
	b := randBlock(r, 128)
	p := make([]byte, 128)
	Parity(p, a, b)

	oldMid := append([]byte(nil), b[32:96]...)
	newMid := randBlock(r, 64)
	copy(b[32:96], newMid)
	XORInto(p[32:96], oldMid) // parity ^= old ^ new, the read-modify-write identity
	XORInto(p[32:96], newMid)

	want := make([]byte, 128)
	Parity(want, a, b)
	if !bytes.Equal(p, want) {
		t.Fatal("partial-region parity update diverged")
	}
}

func TestParityProperties(t *testing.T) {
	// XOR of all blocks and their parity is zero (the defining invariant).
	f := func(seed int64, widthSeed uint8, sizeSeed uint16) bool {
		r := rand.New(rand.NewSource(seed))
		width := int(widthSeed%6) + 1
		size := int(sizeSeed%1024) + 1
		blocks := make([][]byte, width)
		for i := range blocks {
			blocks[i] = randBlock(r, size)
		}
		p := make([]byte, size)
		Parity(p, blocks...)
		acc := make([]byte, size)
		XORInto(acc, p)
		for _, b := range blocks {
			XORInto(acc, b)
		}
		for _, v := range acc {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParityZeroesDst(t *testing.T) {
	p := []byte{0xff, 0xff, 0xff, 0xff}
	Parity(p) // no blocks
	for _, v := range p {
		if v != 0 {
			t.Fatal("Parity with no blocks must zero dst")
		}
	}
}

func BenchmarkParityXORWordwise(b *testing.B) {
	dst := make([]byte, 64<<10)
	src := make([]byte, 64<<10)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XORInto(dst, src)
	}
}

func BenchmarkParityXORBytewise(b *testing.B) {
	dst := make([]byte, 64<<10)
	src := make([]byte, 64<<10)
	b.SetBytes(int64(len(dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XORIntoBytewise(dst, src)
	}
}

// deltaGeom is a five-server geometry of 25-byte units: one parity unit, a
// 100-byte stripe; with two, RS(3,2), a 75-byte stripe.
func deltaGeom(m int) Geometry { return Geometry{Servers: 5, StripeUnit: 25, ParityUnits: m} }

// encodeStripe returns the m parity units of one stripe's data, computed
// whole by the stripe's code.
func encodeStripe(t *testing.T, g Geometry, code *gf256.RS, stripe []byte) [][]byte {
	t.Helper()
	data := make([][]byte, g.DataWidth())
	for u := range data {
		data[u] = stripe[int64(u)*g.StripeUnit : int64(u+1)*g.StripeUnit]
	}
	parity := make([][]byte, g.PU())
	for j := range parity {
		parity[j] = make([]byte, g.StripeUnit)
	}
	code.EncodeInto(parity, data)
	return parity
}

// TestUnitRanges pins the merge rule on 25-byte units, then checks for
// random ranges that the result is exactly the set of in-unit positions the
// range touches, in canonical form.
func TestUnitRanges(t *testing.T) {
	g := deltaGeom(1)
	cases := []struct {
		off, len int64
		want     []wire.Span
	}{
		{0, 0, nil},
		{30, 1, []wire.Span{{Off: 5, Len: 1}}},                     // one byte
		{30, 10, []wire.Span{{Off: 5, Len: 10}}},                   // inside one unit
		{45, 10, []wire.Span{{Off: 0, Len: 5}, {Off: 20, Len: 5}}}, // straddles two units, disjoint
		{45, 27, []wire.Span{{Off: 0, Len: 25}}},                   // straddles two units, pieces overlap
		{40, 25, []wire.Span{{Off: 0, Len: 25}}},                   // straddles two units, pieces abut
		{10, 60, []wire.Span{{Off: 0, Len: 25}}},                   // touches three units
		{25, 25, []wire.Span{{Off: 0, Len: 25}}},                   // exactly one unit
	}
	for _, c := range cases {
		if got := g.UnitRanges(c.off, c.len); !slices.Equal(got, c.want) {
			t.Errorf("UnitRanges(%d,%d) = %v, want %v", c.off, c.len, got, c.want)
		}
	}
	f := func(offSeed, lenSeed uint16) bool {
		off, length := int64(offSeed)%1000, int64(lenSeed)%120+1
		touched := make([]bool, g.StripeUnit)
		for b := off; b < off+length; b++ {
			touched[b%g.StripeUnit] = true
		}
		got := g.UnitRanges(off, length)
		var end int64
		for _, r := range got {
			if r.Len <= 0 || r.Off < end || r.Off+r.Len > g.StripeUnit {
				return false // not sorted, disjoint, non-empty and inside the unit
			}
			for p := end; p < r.Off; p++ {
				if touched[p] {
					return false
				}
			}
			for p := r.Off; p < r.Off+r.Len; p++ {
				if !touched[p] {
					return false
				}
			}
			end = r.Off + r.Len
		}
		for p := end; p < g.StripeUnit; p++ {
			if touched[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyParityDeltaMatchesRecompute(t *testing.T) {
	// Updating a random in-stripe range via the delta, folded into only the
	// parity bytes its ranges name, must give the same parity as
	// recomputing from the updated stripe contents — for the one XOR unit
	// of RAID5 and for every coefficient row of RS(3,2). Bytes outside the
	// ranges must not need to change.
	for _, g := range []Geometry{deltaGeom(1), deltaGeom(2)} {
		code, err := gf256.NewRS(g.DataWidth(), g.PU())
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64, offSeed, lenSeed uint16) bool {
			r := rand.New(rand.NewSource(seed))
			ss := g.StripeSize()
			base := g.StripeStart(3)

			data := randBlock(r, int(ss))
			parity := encodeStripe(t, g, code, data)

			off := int64(offSeed) % ss
			length := int64(lenSeed)%(ss-off) + 1
			oldD := append([]byte(nil), data[off:off+length]...)
			newD := randBlock(r, int(length))

			ranges := g.UnitRanges(base+off, length)
			for j := range parity {
				var packed []byte
				for _, rg := range ranges {
					packed = append(packed, parity[j][rg.Off:rg.Off+rg.Len]...)
				}
				g.ApplyParityDelta(code, j, base+off, oldD, newD, ranges, packed)
				for _, rg := range ranges {
					packed = packed[copy(parity[j][rg.Off:rg.Off+rg.Len], packed):]
				}
			}
			copy(data[off:], newD)

			want := encodeStripe(t, g, code, data)
			for j := range parity {
				if !bytes.Equal(parity[j], want[j]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestApplyParityDeltaRejectsCrossStripe(t *testing.T) {
	g := deltaGeom(1)
	code, err := gf256.NewRS(g.DataWidth(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-stripe range")
		}
	}()
	ranges := g.UnitRanges(90, 20)
	g.ApplyParityDelta(code, 0, 90, make([]byte, 20), make([]byte, 20), ranges, make([]byte, 20))
}
