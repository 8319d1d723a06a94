package raid

import (
	"crypto/subtle"
	"fmt"
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
