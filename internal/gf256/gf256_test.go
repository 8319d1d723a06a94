package gf256

import (
	"bytes"
	"fmt"
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

// TestMulAddSliceMatchesBytewise pins both bodies of the kernel — the
// dispatched MulAddSlice (the c=0 and c=1 short-circuits, and on an AVX2
// host the vector body plus its generic tail) and the generic body alone —
// to the bytewise oracle for all 256 coefficients, every length up to and on
// each side of the 32-byte block, and operands at several alignments. Eight
// guard bytes after dst must come back untouched, which catches a vector
// body that stores past the last whole block.
func TestMulAddSliceMatchesBytewise(t *testing.T) {
	bodies := []struct {
		name string
		f    func(c byte, dst, src []byte)
	}{{"MulAddSlice", MulAddSlice}, {"generic", mulAddGeneric}}
	const guard = 8
	rng := rand.New(rand.NewSource(1))
	lengths := []int{31, 32, 33, 63, 64, 65, 95, 96, 97, 4103, 65536}
	for n := 0; n < 31; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		// dst and src offsets from an allocation; short lengths try every
		// dst alignment within a word.
		offsets := [][2]int{{0, 0}, {3, 5}}
		if n <= 97 {
			offsets = offsets[:0]
			for d := 0; d < 8; d++ {
				for s := 0; s < 8; s += 3 {
					offsets = append(offsets, [2]int{d, s})
				}
			}
		}
		for _, off := range offsets {
			src := make([]byte, off[1]+n)[off[1]:]
			rng.Read(src)
			orig := make([]byte, n)
			rng.Read(orig)
			want := make([]byte, n)
			buf := make([]byte, off[0]+n+guard)
			dst := buf[off[0] : off[0]+n]
			for c := range 256 {
				copy(want, orig)
				MulAddSliceBytewise(byte(c), want, src)
				for _, body := range bodies {
					copy(dst, orig)
					for i := range guard {
						buf[off[0]+n+i] = 0xA5
					}
					body.f(byte(c), dst, src)
					if !bytes.Equal(dst, want) {
						t.Fatalf("%s c=%#x n=%d dst+%d src+%d: differs from bytewise", body.name, c, n, off[0], off[1])
					}
					for i, g := range buf[off[0]+n:] {
						if g != 0xA5 {
							t.Fatalf("%s c=%#x n=%d dst+%d: wrote guard byte %d past dst", body.name, c, n, off[0], i)
						}
					}
				}
			}
		}
	}
}

// TestCodingKernelAllocs pins the coding kernels to zero allocations: the
// slice kernel, a full-stripe encode, and a warm decode whose row goes
// through parity 1.
func TestCodingKernelAllocs(t *testing.T) {
	r, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const su = 4096
	rng := rand.New(rand.NewSource(17))
	data := make([][]byte, r.K)
	for i := range data {
		data[i] = make([]byte, su)
		rng.Read(data[i])
	}
	parity := [][]byte{make([]byte, su), make([]byte, su)}
	r.EncodeInto(parity, data)
	units := append(append([][]byte(nil), data...), parity...)
	units[0], units[r.K] = nil, nil // survivors: data 1..3 and parity 1
	dst := make([]byte, su)
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"MulAddSlice", func() { MulAddSlice(0x57, dst, data[1]) }},
		{"EncodeInto", func() { r.EncodeInto(parity, data) }},
		{"warm ReconstructInto", func() {
			if err := r.ReconstructInto(dst, 0, units); err != nil {
				panic(err)
			}
		}},
	} {
		k.f() // warm: the decode row is cached on the code
		if a := testing.AllocsPerRun(20, k.f); a != 0 {
			t.Errorf("%s allocates %.1f/op", k.name, a)
		}
	}
	if !bytes.Equal(dst, data[0]) {
		t.Fatal("ReconstructInto decoded data unit 0 wrong")
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

// encodeBytewise is the byte-at-a-time oracle of the systematic code: each
// parity byte is the sum of Mul(coefficient, data byte) over the stripe,
// computed without MulAddSlice or the decode kernel.
func encodeBytewise(r *RS, data [][]byte) [][]byte {
	units := append([][]byte(nil), data...)
	for j := 0; j < r.M; j++ {
		p := make([]byte, len(data[0]))
		for b := range p {
			for i, d := range data {
				p[b] ^= Mul(r.Coef(j, i), d[b])
			}
		}
		units = append(units, p)
	}
	return units
}

// TestReconstructIntoEveryPattern pins the one decode kernel. For RS(4,2),
// RS(5,1) and RS(2,3), every erasure pattern of up to m units, every target
// (data and parity, lost or present) and whole, sub-unit and odd-length
// ranges of the units, ReconstructInto must produce the oracle's bytes and
// agree with Reconstruct, leave units and their bytes untouched, and write
// nothing outside dst. A pattern with more than m erasures must be refused.
// Warm calls must not allocate.
func TestReconstructIntoEveryPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const unitLen = 96
	ranges := [][2]int{{0, unitLen}, {5, 1}, {3, 7}, {17, 63}, {1, unitLen - 1}}
	for _, shape := range [][2]int{{4, 2}, {5, 1}, {2, 3}} {
		r, err := NewRS(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		n := r.K + r.M
		data := make([][]byte, r.K)
		for i := range data {
			data[i] = make([]byte, unitLen)
			rng.Read(data[i])
		}
		want := encodeBytewise(r, data)
		for mask := 0; mask < 1<<n; mask++ { // bit i set: unit i erased
			erased := 0
			for i := 0; i < n; i++ {
				erased += mask >> i & 1
			}
			for _, rg := range ranges {
				lo, hi := rg[0], rg[0]+rg[1]
				units := make([][]byte, n)
				for i := range units {
					if mask>>i&1 == 0 {
						units[i] = append([]byte(nil), want[i][lo:hi]...)
					}
				}
				snapshot := make([][]byte, n)
				for i, u := range units {
					snapshot[i] = append([]byte(nil), u...)
				}
				var decoded [][]byte // Reconstruct's answer, for erasures within reach
				if erased <= r.M {
					decoded = append([][]byte(nil), units...)
					if err := r.Reconstruct(decoded); err != nil {
						t.Fatalf("RS(%d,%d) mask %b: Reconstruct: %v", r.K, r.M, mask, err)
					}
				}
				for target := 0; target < n; target++ {
					name := fmt.Sprintf("RS(%d,%d) erased %0*b target %d range [%d,%d)", r.K, r.M, n, mask, target, lo, hi)
					guard := make([]byte, hi-lo+16)
					for i := range guard {
						guard[i] = 0xA5
					}
					dst := guard[8 : 8+hi-lo]
					err := r.ReconstructInto(dst, target, units)
					if erased > r.M && units[target] == nil {
						if err == nil {
							t.Fatalf("%s: accepted %d erasures", name, erased)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(dst, want[target][lo:hi]) {
						t.Fatalf("%s: differs from the bytewise oracle", name)
					}
					if decoded != nil && !bytes.Equal(dst, decoded[target]) {
						t.Fatalf("%s: differs from Reconstruct", name)
					}
					for i, g := range append(guard[:8:8], guard[8+hi-lo:]...) {
						if g != 0xA5 {
							t.Fatalf("%s: wrote guard byte %d outside dst", name, i)
						}
					}
					for i, u := range units {
						if (u == nil) != (snapshot[i] == nil) || !bytes.Equal(u, snapshot[i]) {
							t.Fatalf("%s: unit %d changed", name, i)
						}
					}
				}
			}
		}
		// Warm, a decode allocates nothing: its row is cached on the code.
		units := append([][]byte(nil), want...)
		units[0] = nil
		dst := make([]byte, unitLen)
		if a := testing.AllocsPerRun(20, func() {
			if err := r.ReconstructInto(dst, 0, units); err != nil {
				panic(err)
			}
		}); a != 0 {
			t.Fatalf("RS(%d,%d): warm ReconstructInto allocates %.1f/op", r.K, r.M, a)
		}
	}
}

// TestReconstructIntoConcurrent shares one code's decode-row cache among
// goroutines that all start cold, each walking every two-erasure pattern of
// RS(7,3) in its own order; run under the race detector it proves the cache
// safe, and every decode must still match the oracle.
func TestReconstructIntoConcurrent(t *testing.T) {
	r, err := NewRS(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	data := make([][]byte, r.K)
	for i := range data {
		data[i] = make([]byte, 40)
		rng.Read(data[i])
	}
	want := encodeBytewise(r, data)
	n := r.K + r.M
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func(g int) {
			dst := make([]byte, 40)
			for p := 0; p < n*n; p++ {
				a, b := (p/n+g)%n, (p%n+2*g)%n
				if a == b {
					continue
				}
				units := append([][]byte(nil), want...)
				units[a], units[b] = nil, nil
				for _, target := range []int{a, b} {
					if err := r.ReconstructInto(dst, target, units); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(dst, want[target]) {
						errs <- fmt.Errorf("goroutine %d erased {%d,%d}: unit %d decoded wrong", g, a, b, target)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
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
// its dispatched form (the vector body on an AVX2 host), its generic body
// and the bytewise ablation, alongside the XOR parity microbenchmarks in
// internal/raid.
func BenchmarkGF256Mul(b *testing.B) {
	const size = 64 << 10
	src := make([]byte, size)
	dst := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(src)
	for _, body := range []struct {
		name string
		f    func(c byte, dst, src []byte)
	}{{"dispatched", MulAddSlice}, {"generic", mulAddGeneric}, {"bytewise", MulAddSliceBytewise}} {
		b.Run(body.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body.f(0x1d, dst, src)
			}
		})
	}
}

// rsStripe returns an RS(4,2) code and one stripe of random data units of
// su bytes, with its parity encoded.
func rsStripe(b *testing.B, su int) (*RS, [][]byte, [][]byte) {
	r, err := NewRS(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, r.K)
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = make([]byte, su)
		rng.Read(data[i])
	}
	parity := [][]byte{make([]byte, su), make([]byte, su)}
	r.EncodeInto(parity, data)
	return r, data, parity
}

// BenchmarkRSEncode measures full-stripe RS(4,2) parity generation over
// 16 KiB and 64 KiB units (bytes/op counts the data encoded, for comparison
// with BenchmarkParityXORWordwise).
func BenchmarkRSEncode(b *testing.B) {
	for _, su := range []int{16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", su>>10), func(b *testing.B) {
			r, data, parity := rsStripe(b, su)
			b.SetBytes(int64(r.K * su))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.EncodeInto(parity, data)
			}
		})
	}
}

// BenchmarkReconstructInto measures a warm RS(4,2) decode of data unit 0
// over 64 KiB units with data 0 and parity 0 lost, so the survivors include
// parity 1 and the decode row is not all ones (bytes/op counts the k units
// read).
func BenchmarkReconstructInto(b *testing.B) {
	const su = 64 << 10
	r, data, parity := rsStripe(b, su)
	units := append(append([][]byte(nil), data...), parity...)
	units[0], units[r.K] = nil, nil
	dst := make([]byte, su)
	if err := r.ReconstructInto(dst, 0, units); err != nil || !bytes.Equal(dst, data[0]) {
		b.Fatalf("decode of data unit 0 wrong (err %v)", err)
	}
	b.SetBytes(int64(r.K * su))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ReconstructInto(dst, 0, units); err != nil {
			b.Fatal(err)
		}
	}
}
