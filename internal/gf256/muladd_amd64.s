#include "textflag.h"

// func mulAddAVX2(tab *[32]byte, dst, src []byte)
//
// Y0 and Y1 hold the low- and high-nibble product tables in both lanes; per
// 32-byte block the two nibbles of every source byte index them through
// VPSHUFB, and the XOR of the two lookups is c*src.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	SHRQ $5, CX
	JZ   done
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVL $0x0f, DX
	VMOVD DX, X2
	VPBROADCASTB X2, Y2

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
