package gf256

// hasAVX2 reports whether the vector body may run: the CPU has AVX2 and the
// OS saves the YMM registers across context switches. Decided once.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// mulAdd runs the AVX2 body over dst's whole 32-byte blocks and the generic
// body over the rest.
func mulAdd(c byte, dst, src []byte) {
	if hasAVX2 {
		n := len(dst) &^ 31
		mulAddAVX2(&nibT[c], dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	mulAddGeneric(c, dst, src)
}

// mulAddAVX2 does dst ^= c*src over len(dst)/32 whole 32-byte blocks, with
// tab = &nibT[c]; src must be at least as long as dst.
//
//go:noescape
func mulAddAVX2(tab *[32]byte, dst, src []byte)

// cpuid executes CPUID with the given EAX and ECX.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0; call it only when CPUID reports
// OSXSAVE.
func xgetbv() uint32
