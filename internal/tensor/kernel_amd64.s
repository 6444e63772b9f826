#include "textflag.h"

// The AVX microkernels. Each lane of a Y register is a different
// output element, and each lane adds its terms in ascending k, one
// rounded VMULPD and then one rounded VADDPD per term (product a·b
// onto the running sum, as the scalar kernels' s += a*b): the bytes
// are the scalar kernels'. No fused multiply-add.

// NTSTEP adds one k's terms to the eight column accumulators Y0–Y7:
// A holds the four rows' elements at k, and the eight b rows' elements
// at k sit off bytes past BX (rows 0–3) and DX (rows 4–7).
#define NTSTEP(off, A) \
	VBROADCASTSD off(BX), Y12; VMULPD Y12, A, Y12; VADDPD Y12, Y0, Y0; \
	VBROADCASTSD off(BX)(R8*1), Y13; VMULPD Y13, A, Y13; VADDPD Y13, Y1, Y1; \
	VBROADCASTSD off(BX)(R8*2), Y14; VMULPD Y14, A, Y14; VADDPD Y14, Y2, Y2; \
	VBROADCASTSD off(BX)(R9*1), Y15; VMULPD Y15, A, Y15; VADDPD Y15, Y3, Y3; \
	VBROADCASTSD off(DX), Y12; VMULPD Y12, A, Y12; VADDPD Y12, Y4, Y4; \
	VBROADCASTSD off(DX)(R8*1), Y13; VMULPD Y13, A, Y13; VADDPD Y13, Y5, Y5; \
	VBROADCASTSD off(DX)(R8*2), Y14; VMULPD Y14, A, Y14; VADDPD Y14, Y6, Y6; \
	VBROADCASTSD off(DX)(R9*1), Y15; VMULPD Y15, A, Y15; VADDPD Y15, Y7, Y7

// TRANSPOSE4 transposes the 4×4 block in rows r0–r3 into columns
// c0–c3 through the temporaries t0–t3: pure data movement.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3, c0, c1, c2, c3) \
	VUNPCKLPD r1, r0, t0; VUNPCKHPD r1, r0, t1; \
	VUNPCKLPD r3, r2, t2; VUNPCKHPD r3, r2, t3; \
	VPERM2F128 $0x20, t2, t0, c0; VPERM2F128 $0x20, t3, t1, c1; \
	VPERM2F128 $0x31, t2, t0, c2; VPERM2F128 $0x31, t3, t1, c3

// func nt4x8(c *float64, ldc int, a, b *float64, ld, n int)
//
// Adds the dot products of four A rows with eight b rows onto the 4×8
// block of C at c (rows ldc apart). The A and the b rows are ld apart,
// each stride 1 in k; n ≥ 1 terms. Y0–Y7 hold C's columns, the four
// rows in the lanes. Four k at a time, the four A rows' next four
// elements are loaded and transposed so that each vector holds the
// rows at one k; the last n%4 k gather the rows' elements one at a
// time. A is read where it lies: no panel is packed.
TEXT ·nt4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R10
	SHLQ $3, R10
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ ld+32(FP), R8
	SHLQ $3, R8
	MOVQ n+40(FP), CX
	LEAQ (R8)(R8*2), R9   // 3 b rows
	LEAQ (BX)(R8*4), DX   // b row 4
	LEAQ (DI)(R10*2), R12 // C row 2
	LEAQ (SI)(R8*2), R13  // A row 2

	VMOVUPD (DI), Y8
	VMOVUPD (DI)(R10*1), Y9
	VMOVUPD (R12), Y10
	VMOVUPD (R12)(R10*1), Y11
	TRANSPOSE4(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3)
	VMOVUPD 32(DI), Y8
	VMOVUPD 32(DI)(R10*1), Y9
	VMOVUPD 32(R12), Y10
	VMOVUPD 32(R12)(R10*1), Y11
	TRANSPOSE4(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y4, Y5, Y6, Y7)

	CMPQ CX, $4
	JLT  ntone

ntfour:
	VMOVUPD (SI), Y8
	VMOVUPD (SI)(R8*1), Y9
	VMOVUPD (R13), Y10
	VMOVUPD (R13)(R8*1), Y11
	TRANSPOSE4(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y8, Y9, Y10, Y11)
	NTSTEP(0, Y8)
	NTSTEP(8, Y9)
	NTSTEP(16, Y10)
	NTSTEP(24, Y11)
	ADDQ $32, BX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, R13
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  ntfour

ntone:
	TESTQ CX, CX
	JZ    ntstore
	VMOVSD (SI), X8
	VMOVHPD (SI)(R8*1), X8, X8
	VMOVSD (R13), X9
	VMOVHPD (R13)(R8*1), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	NTSTEP(0, Y8)
	ADDQ $8, BX
	ADDQ $8, DX
	ADDQ $8, SI
	ADDQ $8, R13
	DECQ CX
	JMP  ntone

ntstore:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, (DI)(R10*1)
	VMOVUPD Y14, (R12)
	VMOVUPD Y15, (R12)(R10*1)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y12, 32(DI)
	VMOVUPD Y13, 32(DI)(R10*1)
	VMOVUPD Y14, 32(R12)
	VMOVUPD Y15, 32(R12)(R10*1)

	VZEROUPPER
	RET

// func gemm4x4(c, a, b *float64, ld, aRow, aK, n, w int)
//
// Adds an n-long panel of B (rows ld apart, w wide, w a positive
// multiple of 4) to four C rows (ld apart, w wide). The four rows' A
// elements at step p sit at p·aK + {0, 1, 2, 3}·aRow. Columns go
// eight at a time, then four; each block of C stays in Y0–Y7 (row q in
// Y(2q), Y(2q+1)) across all n steps.
TEXT ·gemm4x4(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R13
	MOVQ b+16(FP), DX
	MOVQ ld+24(FP), R10
	SHLQ $3, R10
	MOVQ aRow+32(FP), R8
	SHLQ $3, R8
	MOVQ aK+40(FP), R11
	SHLQ $3, R11
	MOVQ w+56(FP), AX
	LEAQ (R8)(R8*2), R9 // 3 A rows
	LEAQ (R10)(R10*2), R12 // 3 C rows

wide:
	CMPQ AX, $8
	JLT  narrow
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R10*1), Y2
	VMOVUPD 32(DI)(R10*1), Y3
	VMOVUPD (DI)(R10*2), Y4
	VMOVUPD 32(DI)(R10*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7
	MOVQ R13, SI
	MOVQ DX, BX
	MOVQ n+48(FP), CX

wideloop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (SI)(R9*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y7, Y7
	ADDQ R11, SI
	ADDQ R10, BX
	DECQ CX
	JNZ  wideloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y5, 32(DI)(R10*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, AX
	JMP  wide

narrow:
	CMPQ AX, $4
	JLT  done
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R10*1), Y2
	VMOVUPD (DI)(R10*2), Y4
	VMOVUPD (DI)(R12*1), Y6
	MOVQ R13, SI
	MOVQ DX, BX
	MOVQ n+48(FP), CX

narrowloop:
	VMOVUPD (BX), Y8
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD Y8, Y10, Y12
	VADDPD Y12, Y4, Y4
	VBROADCASTSD (SI)(R9*1), Y13
	VMULPD Y8, Y13, Y15
	VADDPD Y15, Y6, Y6
	ADDQ R11, SI
	ADDQ R10, BX
	DECQ CX
	JNZ  narrowloop

	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y4, (DI)(R10*2)
	VMOVUPD Y6, (DI)(R12*1)

done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
