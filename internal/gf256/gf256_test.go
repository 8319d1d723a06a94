package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFieldAxioms exercises the multiplication table against a direct
// carry-less ("Russian peasant") product, plus the inverse and division
// tables.
func TestFieldAxioms(t *testing.T) {
	slowMul := func(a, b byte) byte {
		var p byte
		for b > 0 {
			if b&1 != 0 {
				p ^= a
			}
			hi := a&0x80 != 0
			a <<= 1
			if hi {
				a ^= byte(poly & 0xff)
			}
			b >>= 1
		}
		return p
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
		if got := Div(byte(a), byte(a)); got != 1 {
			t.Fatalf("a/a = %d for a=%d", got, a)
		}
	}
	if Div(0, 5) != 0 || Mul(0, 77) != 0 || Mul(1, 77) != 77 {
		t.Fatal("zero/identity laws broken")
	}
}

// MulAddSliceBytewise is the byte-at-a-time dst[i] ^= c*src[i]: the oracle
// MulAddSlice is checked against and the ablation baseline of the GF(256)
// coding microbenchmark.
func MulAddSliceBytewise(c byte, dst, src []byte) {
	row := &mulT[c]
	for i := range dst {
		dst[i] ^= row[src[i]]
	}
}

// TestMulAddSliceMatchesBytewise pins the kernel — the c=1 vector XOR and
// the word-at-a-time table loop — to the bytewise oracle across
// coefficients, every short length, and every alignment of both operands
// within a word.
func TestMulAddSliceMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{63, 64, 65, 1000}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff += 3 {
				src := make([]byte, sOff+n)[sOff:]
				rng.Read(src)
				for _, c := range []byte{0, 1, 2, 3, 0x1d, 0x80, 0xff} {
					a := make([]byte, dOff+n)[dOff:]
					rng.Read(a)
					b := append([]byte(nil), a...)
					MulAddSlice(c, a, src)
					MulAddSliceBytewise(c, b, src)
					if !bytes.Equal(a, b) {
						t.Fatalf("c=%d n=%d dst+%d src+%d: kernel and bytewise disagree", c, n, dOff, sOff)
					}
				}
			}
		}
	}
}

// TestRSRoundTripProperty is the decode(encode(x)) property test: random
// k and m, random data (including ragged tail-stripe lengths), random
// erasure patterns of up to m units across data and parity, reconstructed
// bytes must equal the originals.
func TestRSRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		r, err := NewRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		// Ragged tails: unit sizes that are not multiples of the word size,
		// including the 1-byte degenerate stripe.
		size := 1 + rng.Intn(200)
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity := make([][]byte, m)
		for j := range parity {
			parity[j] = make([]byte, size)
		}
		r.EncodeInto(parity, data)

		// Erase up to m random units (possibly zero — the no-op case).
		units := make([][]byte, k+m)
		for i := range data {
			units[i] = append([]byte(nil), data[i]...)
		}
		for j := range parity {
			units[k+j] = append([]byte(nil), parity[j]...)
		}
		erase := rng.Intn(m + 1)
		for _, idx := range rng.Perm(k + m)[:erase] {
			units[idx] = nil
		}
		if err := r.Reconstruct(units); err != nil {
			t.Fatalf("k=%d m=%d erase=%d: %v", k, m, erase, err)
		}
		for i := range data {
			if !bytes.Equal(units[i], data[i]) {
				t.Fatalf("k=%d m=%d: data unit %d not recovered", k, m, i)
			}
		}
		for j := range parity {
			if !bytes.Equal(units[k+j], parity[j]) {
				t.Fatalf("k=%d m=%d: parity unit %d not recovered", k, m, j)
			}
		}
	}
}

// TestRSTooManyErasures verifies the decoder refuses stripes with fewer
// than k survivors instead of fabricating data.
func TestRSTooManyErasures(t *testing.T) {
	r, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	units := make([][]byte, 6)
	for i := 0; i < 3; i++ {
		units[i] = make([]byte, 16)
	}
	if err := r.Reconstruct(units); err == nil {
		t.Fatal("Reconstruct accepted 3 survivors for RS(4,2)")
	}
}

// TestRSDegeneratesToXOR confirms RS(k,1) parity equals the XOR parity the
// RAID5 path computes, so the two schemes agree on what "parity" means.
func TestRSDegeneratesToXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, err := NewRS(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 5)
	xor := make([]byte, 64)
	for i := range data {
		data[i] = make([]byte, 64)
		rng.Read(data[i])
		for b := range xor {
			xor[b] ^= data[i][b]
		}
	}
	parity := [][]byte{make([]byte, 64)}
	r.EncodeInto(parity, data)
	if !bytes.Equal(parity[0], xor) {
		t.Fatal("RS(k,1) parity differs from XOR parity")
	}
}

// TestRMWDelta verifies the read-modify-write identity the client's RS
// small-write path relies on: parity_j ^= Coef(j,i)*(old XOR new) moves a
// stripe's parity from encode(old data) to encode(new data).
func TestRMWDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r, err := NewRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const size = 48
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	parity := make([][]byte, 3)
	for j := range parity {
		parity[j] = make([]byte, size)
	}
	r.EncodeInto(parity, data)

	// Overwrite unit 2 and patch every parity unit with the delta.
	newUnit := make([]byte, size)
	rng.Read(newUnit)
	delta := make([]byte, size)
	for b := range delta {
		delta[b] = data[2][b] ^ newUnit[b]
	}
	for j := range parity {
		MulAddSlice(r.Coef(j, 2), parity[j], delta)
	}
	data[2] = newUnit

	want := make([][]byte, 3)
	for j := range want {
		want[j] = make([]byte, size)
	}
	r.EncodeInto(want, data)
	for j := range want {
		if !bytes.Equal(parity[j], want[j]) {
			t.Fatalf("parity unit %d: delta update diverges from re-encode", j)
		}
	}
}

// TestNewRSShapes covers the shape validation boundary.
func TestNewRSShapes(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {200, 57}, {-1, 2}} {
		if _, err := NewRS(bad[0], bad[1]); err == nil {
			t.Errorf("NewRS(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if _, err := NewRS(252, 4); err != nil {
		t.Errorf("NewRS(252,4) rejected: %v", err)
	}
	// Cache returns the same instance.
	a, _ := NewRS(4, 2)
	b, _ := NewRS(4, 2)
	if a != b {
		t.Error("NewRS(4,2) not cached")
	}
}

// BenchmarkGF256Mul measures the GF(256) coding kernel (dst ^= c*src) in
// both loop shapes, alongside the XOR parity microbenchmarks in
// internal/raid.
func BenchmarkGF256Mul(b *testing.B) {
	const size = 64 << 10
	src := make([]byte, size)
	dst := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(src)
	b.Run("wordwise", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			MulAddSlice(0x1d, dst, src)
		}
	})
	b.Run("bytewise", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			MulAddSliceBytewise(0x1d, dst, src)
		}
	})
}

// BenchmarkRSEncode measures full-stripe RS(4,2) parity generation over
// 64 KiB units (bytes/op counts the data encoded, for comparison with
// BenchmarkParityXORWordwise).
func BenchmarkRSEncode(b *testing.B) {
	const su = 64 << 10
	r, err := NewRS(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 4)
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = make([]byte, su)
		rng.Read(data[i])
	}
	parity := [][]byte{make([]byte, su), make([]byte, su)}
	b.SetBytes(4 * su)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EncodeInto(parity, data)
	}
}
