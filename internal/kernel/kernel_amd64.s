//go:build !purego

#include "textflag.h"

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// AVX512_STEP accumulates one k step: B row k is loaded once into Z8 and
// each C row i gains a[k*8+i]·B[k, 0:8] through an embedded-broadcast FMA.
#define AVX512_STEP(off) \
	VMOVUPD          off(DX), Z8; \
	VFMADD231PD.BCST off+0(SI), Z8, Z0; \
	VFMADD231PD.BCST off+8(SI), Z8, Z1; \
	VFMADD231PD.BCST off+16(SI), Z8, Z2; \
	VFMADD231PD.BCST off+24(SI), Z8, Z3; \
	VFMADD231PD.BCST off+32(SI), Z8, Z4; \
	VFMADD231PD.BCST off+40(SI), Z8, Z5; \
	VFMADD231PD.BCST off+48(SI), Z8, Z6; \
	VFMADD231PD.BCST off+56(SI), Z8, Z7

// AVX512_ROW adds accumulator reg into the C row at DI and steps DI to the
// next row.
#define AVX512_ROW(reg) \
	VADDPD  (DI), reg, reg; \
	VMOVUPD reg, (DI); \
	ADDQ    BX, DI

// func gemm8x8AVX512(kc int, a, b, c *float64, ldc int)
//
// C[0:8, 0:8] += Aᵖ·Bᵖ with one zmm accumulator per C row (Z0–Z7). kc ≥ 1
// and the panel/C extents are checked by the Go wrapper.
TEXT ·gemm8x8AVX512(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), BX
	SHLQ $3, BX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	MOVQ CX, R8
	SHRQ $2, R8
	ANDQ $3, CX
	TESTQ R8, R8
	JZ   avx512tail

avx512loop4:
	AVX512_STEP(0)
	AVX512_STEP(64)
	AVX512_STEP(128)
	AVX512_STEP(192)
	ADDQ $256, SI
	ADDQ $256, DX
	DECQ R8
	JNZ  avx512loop4

avx512tail:
	TESTQ CX, CX
	JZ    avx512store

avx512loop1:
	AVX512_STEP(0)
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  avx512loop1

avx512store:
	AVX512_ROW(Z0)
	AVX512_ROW(Z1)
	AVX512_ROW(Z2)
	AVX512_ROW(Z3)
	AVX512_ROW(Z4)
	AVX512_ROW(Z5)
	AVX512_ROW(Z6)
	AVX512_ROW(Z7)
	VZEROUPPER
	RET

// AVX2_ROWS accumulates one k step for four C rows: B row k (at off(DX))
// sits in Y8/Y9 (columns 0–3 and 4–7), and rows 0–3 of the pass gain
// a[k*8+i]·B[k, 0:8] into Y(2i)/Y(2i+1).
#define AVX2_ROWS(off) \
	VMOVUPD      off(DX), Y8; \
	VMOVUPD      off+32(DX), Y9; \
	VBROADCASTSD off(R10), Y10; \
	VBROADCASTSD off+8(R10), Y11; \
	VBROADCASTSD off+16(R10), Y12; \
	VBROADCASTSD off+24(R10), Y13; \
	VFMADD231PD  Y8, Y10, Y0; \
	VFMADD231PD  Y9, Y10, Y1; \
	VFMADD231PD  Y8, Y11, Y2; \
	VFMADD231PD  Y9, Y11, Y3; \
	VFMADD231PD  Y8, Y12, Y4; \
	VFMADD231PD  Y9, Y12, Y5; \
	VFMADD231PD  Y8, Y13, Y6; \
	VFMADD231PD  Y9, Y13, Y7

// AVX2_ROW adds accumulators lo/hi into the C row at DI and steps DI to the
// next row.
#define AVX2_ROW(lo, hi) \
	VADDPD  (DI), lo, lo; \
	VMOVUPD lo, (DI); \
	VADDPD  32(DI), hi, hi; \
	VMOVUPD hi, 32(DI); \
	ADDQ    BX, DI

// func gemm8x8AVX2(kc int, a, b, c *float64, ldc int)
//
// C[0:8, 0:8] += Aᵖ·Bᵖ as two passes over the panels, rows 0–3 then rows
// 4–7, each with eight ymm accumulators (two per row). A one-pass 8×8 tile
// would need 16 accumulators plus B and broadcast registers, more than the
// 16 ymm registers AVX2 has. kc ≥ 1 and the panel/C extents are checked by
// the Go wrapper.
TEXT ·gemm8x8AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), SI
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), BX
	SHLQ $3, BX
	MOVQ $2, R9

avx2pass:
	MOVQ kc+0(FP), CX
	MOVQ b+16(FP), DX
	MOVQ SI, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, R8
	SHRQ $1, R8
	ANDQ $1, CX
	TESTQ R8, R8
	JZ   avx2tail

avx2loop2:
	AVX2_ROWS(0)
	AVX2_ROWS(64)
	ADDQ $128, R10
	ADDQ $128, DX
	DECQ R8
	JNZ  avx2loop2

avx2tail:
	TESTQ CX, CX
	JZ    avx2store
	AVX2_ROWS(0)

avx2store:

	AVX2_ROW(Y0, Y1)
	AVX2_ROW(Y2, Y3)
	AVX2_ROW(Y4, Y5)
	AVX2_ROW(Y6, Y7)
	ADDQ $32, SI
	DECQ R9
	JNZ  avx2pass
	VZEROUPPER
	RET
