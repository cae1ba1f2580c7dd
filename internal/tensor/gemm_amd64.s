//go:build amd64

#include "textflag.h"

// AVX2/FMA GEMM micro-kernels over the PackedB panel layout (pack.go):
// within one k-panel of kc rows, the nr=8-wide column tile for output
// columns [j0, j0+8) is stored contiguously as kc consecutive 8-float
// rows, so the kernels stream B with unit stride and perfect ymm
// alignment of access pattern regardless of n.
//
// Numerics: each multiply-add is a fused FMA (one rounding), so
// results differ from the pure-Go tier by a relative epsilon — see the
// numerics contract in cpu.go.
//
// Epilogue (pack.go's epZero/epBias/epReLU, in the flags word): with
// bit 0 the accumulators start at zero (VXORPS) instead of loading C;
// with bit 1 each gets + bias[0:8] after the last FMA, the accumulator
// as the first source as in AddBiasRows; with bit 2 each then becomes
// Intel MAX(src1=0, src2=v), which returns v unless 0 > v, so it is
// `if v < 0 { v = 0 }` bit for bit: −0 and NaN pass through. (The
// other operand order would turn −0 into +0 and NaN into 0.) Then the
// tile is stored once.

// func gemmKernel8x8(a *float32, lda int, tile *float32, c *float32, ldc int, kc int, bias *float32, flags int)
//
// Register-tiled 8-row × 8-column micro-kernel:
//
//	C[r][0:8] += Σ_{p<kc} A[r*lda+p] · tile[p*8 : p*8+8]   for r in 0..7
//
// a points at A[row0][p0] (row stride lda elements), tile at the
// packed 8-wide column tile of the current k-panel, c at C[row0][j0]
// (row stride ldc elements), bias at bias[j0] (read only under bit 1
// of flags). Eight ymm accumulators (one per row) stay live across the
// whole panel; each k-step is one tile load, eight broadcasts, and
// eight FMAs. The two-base addressing below (DI = row 0, BX = row 3)
// reaches all eight row pointers with scaled-index modes, so the inner
// loop advances just three pointers.
TEXT ·gemmKernel8x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), DI
	MOVQ lda+8(FP), SI
	MOVQ tile+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ ldc+32(FP), R9
	MOVQ kc+40(FP), CX
	MOVQ bias+48(FP), R11
	MOVQ flags+56(FP), AX

	SHLQ $2, SI           // lda in bytes
	SHLQ $2, R9           // ldc in bytes
	LEAQ (SI)(SI*2), R10  // 3·lda bytes
	LEAQ (DI)(R10*1), BX  // &A[row3][p0]
	LEAQ (R9)(R9*2), R12  // 3·ldc bytes
	LEAQ (R8)(R9*4), R13  // &C[row4][j0]

	TESTQ $1, AX
	JZ    load

	// First panel: the sums start at zero; C is not read.
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    loop

load:
	// Load the eight C accumulator rows.
	VMOVUPS (R8), Y0
	VMOVUPS (R8)(R9*1), Y1
	VMOVUPS (R8)(R9*2), Y2
	VMOVUPS (R8)(R12*1), Y3
	VMOVUPS (R13), Y4
	VMOVUPS (R13)(R9*1), Y5
	VMOVUPS (R13)(R9*2), Y6
	VMOVUPS (R13)(R12*1), Y7

loop:
	VMOVUPS (DX), Y8          // 8-wide B tile row for this p
	VBROADCASTSS (DI), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (DI)(SI*1), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS (DI)(SI*2), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS (BX), Y9
	VFMADD231PS Y8, Y9, Y3
	VBROADCASTSS (DI)(SI*4), Y9
	VFMADD231PS Y8, Y9, Y4
	VBROADCASTSS (BX)(SI*2), Y9
	VFMADD231PS Y8, Y9, Y5
	VBROADCASTSS (BX)(R10*1), Y9
	VFMADD231PS Y8, Y9, Y6
	VBROADCASTSS (BX)(SI*4), Y9
	VFMADD231PS Y8, Y9, Y7
	ADDQ $32, DX
	ADDQ $4, DI
	ADDQ $4, BX
	DECQ CX
	JNZ  loop

	TESTQ $2, AX
	JZ    relu

	// Last panel: c = c + bias (Intel VADDPS Yc, Yc, m256).
	VADDPS (R11), Y0, Y0
	VADDPS (R11), Y1, Y1
	VADDPS (R11), Y2, Y2
	VADDPS (R11), Y3, Y3
	VADDPS (R11), Y4, Y4
	VADDPS (R11), Y5, Y5
	VADDPS (R11), Y6, Y6
	VADDPS (R11), Y7, Y7

relu:
	TESTQ $4, AX
	JZ    store

	// c = MAX(src1=0, src2=c): Go's operand order is src2, src1, dst.
	VXORPS Y9, Y9, Y9
	VMAXPS Y0, Y9, Y0
	VMAXPS Y1, Y9, Y1
	VMAXPS Y2, Y9, Y2
	VMAXPS Y3, Y9, Y3
	VMAXPS Y4, Y9, Y4
	VMAXPS Y5, Y9, Y5
	VMAXPS Y6, Y9, Y6
	VMAXPS Y7, Y9, Y7

store:
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, (R8)(R9*1)
	VMOVUPS Y2, (R8)(R9*2)
	VMOVUPS Y3, (R8)(R12*1)
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, (R13)(R9*1)
	VMOVUPS Y6, (R13)(R9*2)
	VMOVUPS Y7, (R13)(R12*1)
	VZEROUPPER
	RET

// func gemmKernel4x8(a *float32, lda int, tile *float32, c *float32, ldc int, kc int, bias *float32, flags int)
//
// Four-row tail kernel: gemmKernel8x8's loop and epilogue over rows
// 0..3, for four of the m%8 remainder rows at a time, so those rows
// stream the B tile once instead of once a row. Each row keeps its own
// accumulator with the same sequential fused FMA in ascending p and the
// same epilogue, so a row's bits are those of gemmKernel8x8 and
// gemmKernel1x8.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), DI
	MOVQ lda+8(FP), SI
	MOVQ tile+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ ldc+32(FP), R9
	MOVQ kc+40(FP), CX
	MOVQ bias+48(FP), R11
	MOVQ flags+56(FP), AX

	SHLQ $2, SI           // lda in bytes
	SHLQ $2, R9           // ldc in bytes
	LEAQ (SI)(SI*2), R10  // 3·lda bytes
	LEAQ (R9)(R9*2), R12  // 3·ldc bytes

	TESTQ $1, AX
	JZ    load

	// First panel: the sums start at zero; C is not read.
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP    loop

load:
	VMOVUPS (R8), Y0
	VMOVUPS (R8)(R9*1), Y1
	VMOVUPS (R8)(R9*2), Y2
	VMOVUPS (R8)(R12*1), Y3

loop:
	VMOVUPS (DX), Y8          // 8-wide B tile row for this p
	VBROADCASTSS (DI), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (DI)(SI*1), Y9
	VFMADD231PS Y8, Y9, Y1
	VBROADCASTSS (DI)(SI*2), Y9
	VFMADD231PS Y8, Y9, Y2
	VBROADCASTSS (DI)(R10*1), Y9
	VFMADD231PS Y8, Y9, Y3
	ADDQ $32, DX
	ADDQ $4, DI
	DECQ CX
	JNZ  loop

	TESTQ $2, AX
	JZ    relu
	VADDPS (R11), Y0, Y0
	VADDPS (R11), Y1, Y1
	VADDPS (R11), Y2, Y2
	VADDPS (R11), Y3, Y3

relu:
	TESTQ $4, AX
	JZ    store
	VXORPS Y9, Y9, Y9
	VMAXPS Y0, Y9, Y0
	VMAXPS Y1, Y9, Y1
	VMAXPS Y2, Y9, Y2
	VMAXPS Y3, Y9, Y3

store:
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, (R8)(R9*1)
	VMOVUPS Y2, (R8)(R9*2)
	VMOVUPS Y3, (R8)(R12*1)
	VZEROUPPER
	RET

// func gemmKernel1x8(a *float32, tile *float32, c *float32, kc int, bias *float32, flags int)
//
// Single-row edge kernel for the 1–3 rows of the m%8 remainder that
// gemmKernel4x8 leaves:
//
//	C[0:8] += Σ_{p<kc} a[p] · tile[p*8 : p*8+8]
//
// with the same epilogue flags as gemmKernel8x8. A single accumulator
// keeps the per-row operation order identical to one row of
// gemmKernel8x8 (sequential fused FMA in ascending p, then the same
// epilogue), so a row produces the same bits whether a shard boundary
// routes it through the 8×8 or 4×8 tile or this kernel — ParallelGemmPacked
// stays bit-identical to serial GemmPacked on the AVX2 tier. The 4-way
// unroll only amortizes loop overhead; it does not re-associate.
TEXT ·gemmKernel1x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), DI
	MOVQ tile+8(FP), DX
	MOVQ c+16(FP), R8
	MOVQ kc+24(FP), CX
	MOVQ bias+32(FP), R11
	MOVQ flags+40(FP), R10

	TESTQ $1, R10
	JZ    load
	VXORPS Y0, Y0, Y0
	JMP    start

load:
	VMOVUPS (R8), Y0

start:
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   tail

loop4:
	VBROADCASTSS (DI), Y9
	VFMADD231PS (DX), Y9, Y0
	VBROADCASTSS 4(DI), Y9
	VFMADD231PS 32(DX), Y9, Y0
	VBROADCASTSS 8(DI), Y9
	VFMADD231PS 64(DX), Y9, Y0
	VBROADCASTSS 12(DI), Y9
	VFMADD231PS 96(DX), Y9, Y0
	ADDQ $16, DI
	ADDQ $128, DX
	DECQ AX
	JNZ  loop4

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VBROADCASTSS (DI), Y9
	VFMADD231PS (DX), Y9, Y0
	ADDQ $4, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  tail1

done:
	TESTQ $2, R10
	JZ    relu
	VADDPS (R11), Y0, Y0

relu:
	TESTQ $4, R10
	JZ    store
	VXORPS Y9, Y9, Y9
	VMAXPS Y0, Y9, Y0

store:
	VMOVUPS Y0, (R8)
	VZEROUPPER
	RET

// func gemmKernel16x16(a *float32, lda int, tile *float32, c *float32, ldc int, kc int, bias *float32, flags int)
//
// AVX-512 micro-kernel for the avx512 tier: 16 rows × 16 columns, the
// two adjacent 8-wide column tiles of the current k-panel at tile and
// tile + kc·8 floats (pack.go lays them out back to back), so PackB's
// layout is the one the YMM kernels read:
//
//	C[r][0:16] += Σ_{p<kc} A[r*lda+p] · (tile0[p*8:p*8+8] ‖ tile1[p*8:p*8+8])   for r in 0..15
//
// Each k-step loads the two tile rows into one ZMM register (a YMM load
// and a VINSERTF64X4 of the other half, both AVX-512F) and runs sixteen
// FMAs whose A operand is broadcast from memory inside the instruction
// (the .BCST form), one per row into its own ZMM accumulator, Z16–Z31.
// Every lane is the YMM kernels' operation: one fused FMA a p, in
// ascending p, then the same epilogue (bias add with the accumulator as
// the first source, MAX(src1=0, src2=v)), so each output element has
// gemmKernel8x8's bits. The only difference is which multiplicand an
// FMA names first, which decides nothing but the payload of a NaN
// product whose A and B factors are both NaN.
//
// Rows are reached from two bases, DI = row 0 and BX = row 3, with
// indexes SI = 1, R10 = 3, R12 = 5 and R13 = 7 rows, so the inner loop
// advances three pointers. R14 walks C in the prologue and epilogue and
// holds the kc·32-byte distance to the second tile in the loop.
TEXT ·gemmKernel16x16(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), DI
	MOVQ lda+8(FP), SI
	MOVQ tile+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ ldc+32(FP), R9
	MOVQ kc+40(FP), CX
	MOVQ bias+48(FP), R11
	MOVQ flags+56(FP), AX

	SHLQ $2, SI            // lda in bytes
	SHLQ $2, R9            // ldc in bytes
	LEAQ (SI)(SI*2), R10   // 3·lda bytes
	LEAQ (SI)(SI*4), R12   // 5·lda bytes
	LEAQ (R10)(SI*4), R13  // 7·lda bytes
	LEAQ (DI)(R10*1), BX   // &A[row3][p0]

	TESTQ $1, AX
	JZ    load

	// First panel: the sums start at zero; C is not read.
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	JMP    start

load:
	// Load the sixteen C accumulator rows.
	MOVQ    R8, R14
	VMOVUPS (R14), Z16
	ADDQ    R9, R14
	VMOVUPS (R14), Z17
	ADDQ    R9, R14
	VMOVUPS (R14), Z18
	ADDQ    R9, R14
	VMOVUPS (R14), Z19
	ADDQ    R9, R14
	VMOVUPS (R14), Z20
	ADDQ    R9, R14
	VMOVUPS (R14), Z21
	ADDQ    R9, R14
	VMOVUPS (R14), Z22
	ADDQ    R9, R14
	VMOVUPS (R14), Z23
	ADDQ    R9, R14
	VMOVUPS (R14), Z24
	ADDQ    R9, R14
	VMOVUPS (R14), Z25
	ADDQ    R9, R14
	VMOVUPS (R14), Z26
	ADDQ    R9, R14
	VMOVUPS (R14), Z27
	ADDQ    R9, R14
	VMOVUPS (R14), Z28
	ADDQ    R9, R14
	VMOVUPS (R14), Z29
	ADDQ    R9, R14
	VMOVUPS (R14), Z30
	ADDQ    R9, R14
	VMOVUPS (R14), Z31

start:
	MOVQ CX, R14
	SHLQ $5, R14           // kc·8 floats: the second tile's offset

loop:
	VMOVUPS      (DX), Y0                   // tile0 row p: lanes 0–7
	VINSERTF64X4 $1, (DX)(R14*1), Z0, Z0    // tile1 row p: lanes 8–15
	VFMADD231PS.BCST (DI), Z0, Z16          // row 0
	VFMADD231PS.BCST (DI)(SI*1), Z0, Z17    // row 1
	VFMADD231PS.BCST (DI)(SI*2), Z0, Z18    // row 2
	VFMADD231PS.BCST (BX), Z0, Z19          // row 3
	VFMADD231PS.BCST (DI)(SI*4), Z0, Z20    // row 4
	VFMADD231PS.BCST (DI)(R12*1), Z0, Z21   // row 5
	VFMADD231PS.BCST (DI)(R10*2), Z0, Z22   // row 6
	VFMADD231PS.BCST (DI)(R13*1), Z0, Z23   // row 7
	VFMADD231PS.BCST (DI)(SI*8), Z0, Z24    // row 8
	VFMADD231PS.BCST (BX)(R10*2), Z0, Z25   // row 9
	VFMADD231PS.BCST (DI)(R12*2), Z0, Z26   // row 10
	VFMADD231PS.BCST (BX)(SI*8), Z0, Z27    // row 11
	VFMADD231PS.BCST (DI)(R10*4), Z0, Z28   // row 12
	VFMADD231PS.BCST (BX)(R12*2), Z0, Z29   // row 13
	VFMADD231PS.BCST (DI)(R13*2), Z0, Z30   // row 14
	VFMADD231PS.BCST (BX)(R10*4), Z0, Z31   // row 15
	ADDQ $32, DX
	ADDQ $4, DI
	ADDQ $4, BX
	DECQ CX
	JNZ  loop

	TESTQ $2, AX
	JZ    relu

	// Last panel: c = c + bias (Intel VADDPS Zc, Zc, m512).
	VADDPS (R11), Z16, Z16
	VADDPS (R11), Z17, Z17
	VADDPS (R11), Z18, Z18
	VADDPS (R11), Z19, Z19
	VADDPS (R11), Z20, Z20
	VADDPS (R11), Z21, Z21
	VADDPS (R11), Z22, Z22
	VADDPS (R11), Z23, Z23
	VADDPS (R11), Z24, Z24
	VADDPS (R11), Z25, Z25
	VADDPS (R11), Z26, Z26
	VADDPS (R11), Z27, Z27
	VADDPS (R11), Z28, Z28
	VADDPS (R11), Z29, Z29
	VADDPS (R11), Z30, Z30
	VADDPS (R11), Z31, Z31

relu:
	TESTQ $4, AX
	JZ    store

	// c = MAX(src1=0, src2=c): Go's operand order is src2, src1, dst.
	VPXORD Z0, Z0, Z0
	VMAXPS Z16, Z0, Z16
	VMAXPS Z17, Z0, Z17
	VMAXPS Z18, Z0, Z18
	VMAXPS Z19, Z0, Z19
	VMAXPS Z20, Z0, Z20
	VMAXPS Z21, Z0, Z21
	VMAXPS Z22, Z0, Z22
	VMAXPS Z23, Z0, Z23
	VMAXPS Z24, Z0, Z24
	VMAXPS Z25, Z0, Z25
	VMAXPS Z26, Z0, Z26
	VMAXPS Z27, Z0, Z27
	VMAXPS Z28, Z0, Z28
	VMAXPS Z29, Z0, Z29
	VMAXPS Z30, Z0, Z30
	VMAXPS Z31, Z0, Z31

store:
	MOVQ    R8, R14
	VMOVUPS Z16, (R14)
	ADDQ    R9, R14
	VMOVUPS Z17, (R14)
	ADDQ    R9, R14
	VMOVUPS Z18, (R14)
	ADDQ    R9, R14
	VMOVUPS Z19, (R14)
	ADDQ    R9, R14
	VMOVUPS Z20, (R14)
	ADDQ    R9, R14
	VMOVUPS Z21, (R14)
	ADDQ    R9, R14
	VMOVUPS Z22, (R14)
	ADDQ    R9, R14
	VMOVUPS Z23, (R14)
	ADDQ    R9, R14
	VMOVUPS Z24, (R14)
	ADDQ    R9, R14
	VMOVUPS Z25, (R14)
	ADDQ    R9, R14
	VMOVUPS Z26, (R14)
	ADDQ    R9, R14
	VMOVUPS Z27, (R14)
	ADDQ    R9, R14
	VMOVUPS Z28, (R14)
	ADDQ    R9, R14
	VMOVUPS Z29, (R14)
	ADDQ    R9, R14
	VMOVUPS Z30, (R14)
	ADDQ    R9, R14
	VMOVUPS Z31, (R14)
	VZEROUPPER
	RET
