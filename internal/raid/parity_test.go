package raid

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
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
