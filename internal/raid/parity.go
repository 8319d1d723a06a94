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

// UpdateParity applies a read-modify-write parity delta: given the parity of
// a stripe, the old contents of a region and the new contents replacing it,
// it updates parity in place (parity ^= old ^ new). All three slices must
// have the same length.
func UpdateParity(parity, oldData, newData []byte) {
	XORInto(parity, oldData)
	XORInto(parity, newData)
}

// Reconstruct recovers one lost block from the surviving blocks of a stripe
// and its parity: lost = parity XOR (XOR of survivors). The result is
// written into dst, which must have the same length as every input.
func Reconstruct(dst, parity []byte, survivors ...[]byte) {
	copy(dst, parity)
	for _, b := range survivors {
		XORInto(dst, b)
	}
}
