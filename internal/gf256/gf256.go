// Package gf256 implements arithmetic over the Galois field GF(2^8) and a
// systematic Reed-Solomon RS(k,m) erasure code built on it.
//
// The field uses the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d), the
// same polynomial as the Linux RAID6 and most RS implementations, so parity
// bytes are comparable against reference vectors. All products are served
// from a flat 64 KiB multiplication table built at init; the coding loops
// read one table row per coefficient and assemble eight product bytes into
// a machine word before touching the destination (the tests keep a
// byte-at-a-time oracle and ablation baseline, as internal/raid's do).
package gf256

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// poly is the reduction polynomial (x^8 is implicit in the carry-out).
const poly = 0x11d

var (
	// expT[i] = g^i for generator g=2, doubled so products of logs need no
	// modular reduction: expT[logT[a]+logT[b]] is always in range.
	expT [510]byte
	// logT[a] = discrete log of a (logT[0] is unused).
	logT [256]byte
	// mulT[a][b] = a*b in GF(256); the row mulT[c] is the lookup table the
	// coding loops stream through.
	mulT [256][256]byte
	// invT[a] = a^-1 (invT[0] is unused).
	invT [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expT[i] = byte(x)
		expT[i+255] = byte(x)
		logT[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for a := 1; a < 256; a++ {
		invT[a] = expT[255-int(logT[a])]
		for b := 1; b < 256; b++ {
			mulT[a][b] = expT[int(logT[a])+int(logT[b])]
		}
	}
}

// Mul returns a*b in GF(256).
func Mul(a, b byte) byte { return mulT[a][b] }

// Inv returns a^-1 in GF(256); it panics on a=0, which has no inverse.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invT[a]
}

// Div returns a/b in GF(256); it panics on b=0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expT[int(logT[a])+255-int(logT[b])]
}

// MulAddSlice accumulates c*src into dst: dst[i] ^= c*src[i]. The slices
// must have equal length. c=0 is a no-op and c=1 degenerates to the plain
// vector XOR; other coefficients stream one mul-table row and fold eight
// product bytes at a time into the destination word.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	row := &mulT[c]
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		w := uint64(row[s[0]]) | uint64(row[s[1]])<<8 |
			uint64(row[s[2]])<<16 | uint64(row[s[3]])<<24 |
			uint64(row[s[4]])<<32 | uint64(row[s[5]])<<40 |
			uint64(row[s[6]])<<48 | uint64(row[s[7]])<<56
		d := binary.LittleEndian.Uint64(dst[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^w)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= row[src[i]]
	}
}

// --- matrix arithmetic (row-major [][]byte) ---

// matMul returns a×b for a (r×n) and b (n×c).
func matMul(a, b [][]byte) [][]byte {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]byte, rows)
	for i := range out {
		row := make([]byte, cols)
		for t := 0; t < inner; t++ {
			if a[i][t] == 0 {
				continue
			}
			mrow := &mulT[a[i][t]]
			for j := 0; j < cols; j++ {
				row[j] ^= mrow[b[t][j]]
			}
		}
		out[i] = row
	}
	return out
}

// matInvert returns m^-1 for a square matrix, or an error if m is singular.
// Gauss-Jordan elimination over GF(256); m is not modified.
func matInvert(m [][]byte) ([][]byte, error) {
	n := len(m)
	// Augmented [work | out], starting as [m | I].
	work := make([][]byte, n)
	out := make([][]byte, n)
	for i := range work {
		work[i] = append([]byte(nil), m[i]...)
		out[i] = make([]byte, n)
		out[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("gf256: singular matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		out[col], out[pivot] = out[pivot], out[col]
		if p := work[col][col]; p != 1 {
			ip := invT[p]
			scaleRow(work[col], ip)
			scaleRow(out[col], ip)
		}
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			mulAddRow(work[r], work[col], f)
			mulAddRow(out[r], out[col], f)
		}
	}
	return out, nil
}

func scaleRow(row []byte, c byte) {
	mrow := &mulT[c]
	for i := range row {
		row[i] = mrow[row[i]]
	}
}

func mulAddRow(dst, src []byte, c byte) {
	mrow := &mulT[c]
	for i := range dst {
		dst[i] ^= mrow[src[i]]
	}
}
