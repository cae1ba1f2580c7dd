//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// SLS accumulation kernels. Unlike the GEMM micro-kernels, poolRowsF32
// and poolRowsI8 deliberately avoid FMA and preserve the Go tier's
// per-element operation order, so their results are bit-identical to
// the portable kernels. See the numerics contract in cpu.go.

// 128.0, the row-wise int8 code bias (codes are stored as code-128).
DATA f128<>+0(SB)/4, $0x43000000
GLOBL f128<>(SB), RODATA|NOPTR, $4

// PF_AHEAD_F32 is how many IDs ahead of the row being pooled
// poolRowsF32 prefetches: of 0, 4, 8, 12 and 16, the distance that
// pooled 80-ID bags from a 128 MB table of 32-wide rows fastest
// (EXPERIMENTS.md, "One kernel call per fp32 bag").
#define PF_AHEAD_F32 8

// PREFETCH_ROW_AHEAD prefetches every line of the fp32 row PF_AHEAD_F32
// IDs on, unless the bag ends first: one PREFETCHT0 each 64 bytes from
// the row's first byte, then one at its last byte. It uses R10 and R12;
// SI is the table, DX the row stride in bytes, BX the current ID, CX
// the IDs left.
#define PREFETCH_ROW_AHEAD(skip, lines) \
	CMPQ CX, $PF_AHEAD_F32 \
	JBE  skip \
	MOVQ (PF_AHEAD_F32*8)(BX), R10 \
	IMULQ DX, R10 \
	ADDQ SI, R10 \
	LEAQ -1(R10)(DX*1), R12 \
lines: \
	PREFETCHT0 (R10) \
	ADDQ $64, R10 \
	CMPQ R10, R12 \
	JBE  lines \
	PREFETCHT0 (R12) \
skip:

// func poolRowsF32(dst, rows *float32, ids *int, n, cols int)
//
// dst[c] += rows[id·cols+c] for each of the n rows ids[0..n), in ids
// order: one call per bag of an fp32 SLS. IDs are validated by the
// caller. When cols is a multiple of 8 up to 64, dst lives in Y0–Y7 for
// the whole bag and is stored once; otherwise each row is added into
// dst in memory, 8 lanes then a scalar tail. Each add takes the
// accumulator as its first source, as poolRowsI8's do; the adds are
// the Go tier's, element by element and in the same order, so the
// result is bit-identical to it.
TEXT ·poolRowsF32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ ids+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ cols+32(FP), R8
	MOVQ R8, DX
	SHLQ $2, DX             // DX = row stride in bytes

	MOVQ R8, R11
	SHRQ $3, R11            // R11 = 8-lane chunks
	TESTQ $7, R8
	JNZ  mem
	CMPQ R11, $8
	JA   mem

	// Register path: load dst into Y0..Y(R11-1).
	VMOVUPS (DI), Y0
	CMPQ R11, $2
	JB   reg_loop
	VMOVUPS 32(DI), Y1
	CMPQ R11, $3
	JB   reg_loop
	VMOVUPS 64(DI), Y2
	CMPQ R11, $4
	JB   reg_loop
	VMOVUPS 96(DI), Y3
	CMPQ R11, $5
	JB   reg_loop
	VMOVUPS 128(DI), Y4
	CMPQ R11, $6
	JB   reg_loop
	VMOVUPS 160(DI), Y5
	CMPQ R11, $7
	JB   reg_loop
	VMOVUPS 192(DI), Y6
	CMPQ R11, $8
	JB   reg_loop
	VMOVUPS 224(DI), Y7

reg_loop:
	PREFETCH_ROW_AHEAD(reg_row, reg_lines)
	MOVQ (BX), R9
	IMULQ DX, R9
	ADDQ SI, R9
	VADDPS (R9), Y0, Y0
	CMPQ R11, $2
	JB   reg_next
	VADDPS 32(R9), Y1, Y1
	CMPQ R11, $3
	JB   reg_next
	VADDPS 64(R9), Y2, Y2
	CMPQ R11, $4
	JB   reg_next
	VADDPS 96(R9), Y3, Y3
	CMPQ R11, $5
	JB   reg_next
	VADDPS 128(R9), Y4, Y4
	CMPQ R11, $6
	JB   reg_next
	VADDPS 160(R9), Y5, Y5
	CMPQ R11, $7
	JB   reg_next
	VADDPS 192(R9), Y6, Y6
	CMPQ R11, $8
	JB   reg_next
	VADDPS 224(R9), Y7, Y7

reg_next:
	ADDQ $8, BX
	DECQ CX
	JNZ  reg_loop

	VMOVUPS Y0, (DI)
	CMPQ R11, $2
	JB   done
	VMOVUPS Y1, 32(DI)
	CMPQ R11, $3
	JB   done
	VMOVUPS Y2, 64(DI)
	CMPQ R11, $4
	JB   done
	VMOVUPS Y3, 96(DI)
	CMPQ R11, $5
	JB   done
	VMOVUPS Y4, 128(DI)
	CMPQ R11, $6
	JB   done
	VMOVUPS Y5, 160(DI)
	CMPQ R11, $7
	JB   done
	VMOVUPS Y6, 192(DI)
	CMPQ R11, $8
	JB   done
	VMOVUPS Y7, 224(DI)
	JMP  done

	// Memory path: any other width.
mem:
	PREFETCH_ROW_AHEAD(mem_row, mem_lines)
	MOVQ (BX), R9
	IMULQ DX, R9
	ADDQ SI, R9
	MOVQ DI, R13
	MOVQ R11, AX
	TESTQ AX, AX
	JZ   mem_tail

mem_loop8:
	VMOVUPS (R13), Y11
	VADDPS  (R9), Y11, Y11
	VMOVUPS Y11, (R13)
	ADDQ $32, R9
	ADDQ $32, R13
	DECQ AX
	JNZ  mem_loop8

mem_tail:
	MOVQ R8, AX
	ANDQ $7, AX
	JZ   mem_next

mem_loop1:
	VMOVSS (R13), X11
	VADDSS (R9), X11, X11
	VMOVSS X11, (R13)
	ADDQ $4, R9
	ADDQ $4, R13
	DECQ AX
	JNZ  mem_loop1

mem_next:
	ADDQ $8, BX
	DECQ CX
	JNZ  mem

done:
	VZEROUPPER
	RET

// The fused int8 row layout (simd.go): scale, offset, then the codes.
#define ROW_SCALE 0
#define ROW_OFFSET 4
#define ROW_CODES 8

// PREFETCH_AHEAD prefetches both ends of the row i8PrefetchAhead IDs
// on (simd.go; a row may straddle two lines), unless the call's IDs end
// first. It uses R10 and R12; SI is the table, DX the stride, BX the
// current ID, CX the IDs left in the call.
#define PREFETCH_AHEAD(skip) \
	CMPQ CX, $const_i8PrefetchAhead \
	JBE  skip \
	MOVQ (const_i8PrefetchAhead*8)(BX), R10 \
	IMULQ DX, R10 \
	LEAQ -1(R10)(DX*1), R12 \
	PREFETCHT0 (SI)(R10*1) \
	PREFETCHT0 (SI)(R12*1) \
skip:

// ROW_AT points R9 at the fused row of the current ID (BX) and
// broadcasts the row's scale into scale and its offset into offset.
#define ROW_AT(scale, offset) \
	MOVQ (BX), R9 \
	IMULQ DX, R9 \
	ADDQ SI, R9 \
	VBROADCASTSS ROW_SCALE(R9), scale \
	VBROADCASTSS ROW_OFFSET(R9), offset

// DEQUANT8 dequantizes 8 codes at off(R9) into tmp with the Go tier's
// operation order: convert, +128 (Y10), ·scale (Y8), +offset (Y9).
#define DEQUANT8(off, tmp) \
	VPMOVSXBD off(R9), tmp \
	VCVTDQ2PS tmp, tmp \
	VADDPS    Y10, tmp, tmp \
	VMULPS    Y8, tmp, tmp \
	VADDPS    Y9, tmp, tmp

// func poolRowsI8(dst *float32, rows *byte, stride int, ids *int, n, lookups, cols int)
//
// For each of the n/lookups bags k, dst[k·cols+c] += (float32(code_c)
// +128)·scale + offset for each of the lookups fused rows of bag k, in
// ids order: the n IDs ids[0..n) are the bags back to back, and n > 0
// is a multiple of lookups. IDs are validated by the caller. When cols
// is a multiple of 8 up to 64, a bag's output row lives in Y0–Y7 and is
// stored once; otherwise each row is added into dst in memory, 8 lanes
// then a scalar tail. Separate multiply and add (no FMA) keep every
// rounding identical to PoolRowsI8's Go loop. DI is the current bag's
// output row, CX counts down the call's IDs (the prefetch guard's
// count) and AX the bag's, from R13.
TEXT ·poolRowsI8(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ ids+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ lookups+40(FP), R13
	MOVQ cols+48(FP), R8
	VBROADCASTSS f128<>(SB), Y10

	MOVQ R8, R11
	SHRQ $3, R11            // R11 = 8-lane chunks
	TESTQ $7, R8
	JNZ  mem_bag
	CMPQ R11, $8
	JA   mem_bag

	// Register path: load the bag's row into Y0..Y(R11-1).
reg_bag:
	MOVQ R13, AX
	VMOVUPS (DI), Y0
	CMPQ R11, $2
	JB   reg_loop
	VMOVUPS 32(DI), Y1
	CMPQ R11, $3
	JB   reg_loop
	VMOVUPS 64(DI), Y2
	CMPQ R11, $4
	JB   reg_loop
	VMOVUPS 96(DI), Y3
	CMPQ R11, $5
	JB   reg_loop
	VMOVUPS 128(DI), Y4
	CMPQ R11, $6
	JB   reg_loop
	VMOVUPS 160(DI), Y5
	CMPQ R11, $7
	JB   reg_loop
	VMOVUPS 192(DI), Y6
	CMPQ R11, $8
	JB   reg_loop
	VMOVUPS 224(DI), Y7

reg_loop:
	PREFETCH_AHEAD(reg_row)
	ROW_AT(Y8, Y9)
	DEQUANT8(ROW_CODES, Y11)
	VADDPS Y11, Y0, Y0
	CMPQ R11, $2
	JB   reg_next
	DEQUANT8(ROW_CODES+8, Y12)
	VADDPS Y12, Y1, Y1
	CMPQ R11, $3
	JB   reg_next
	DEQUANT8(ROW_CODES+16, Y13)
	VADDPS Y13, Y2, Y2
	CMPQ R11, $4
	JB   reg_next
	DEQUANT8(ROW_CODES+24, Y14)
	VADDPS Y14, Y3, Y3
	CMPQ R11, $5
	JB   reg_next
	DEQUANT8(ROW_CODES+32, Y11)
	VADDPS Y11, Y4, Y4
	CMPQ R11, $6
	JB   reg_next
	DEQUANT8(ROW_CODES+40, Y12)
	VADDPS Y12, Y5, Y5
	CMPQ R11, $7
	JB   reg_next
	DEQUANT8(ROW_CODES+48, Y13)
	VADDPS Y13, Y6, Y6
	CMPQ R11, $8
	JB   reg_next
	DEQUANT8(ROW_CODES+56, Y14)
	VADDPS Y14, Y7, Y7

reg_next:
	ADDQ $8, BX
	DECQ CX
	DECQ AX
	JNZ  reg_loop

	VMOVUPS Y0, (DI)
	CMPQ R11, $2
	JB   reg_stored
	VMOVUPS Y1, 32(DI)
	CMPQ R11, $3
	JB   reg_stored
	VMOVUPS Y2, 64(DI)
	CMPQ R11, $4
	JB   reg_stored
	VMOVUPS Y3, 96(DI)
	CMPQ R11, $5
	JB   reg_stored
	VMOVUPS Y4, 128(DI)
	CMPQ R11, $6
	JB   reg_stored
	VMOVUPS Y5, 160(DI)
	CMPQ R11, $7
	JB   reg_stored
	VMOVUPS Y6, 192(DI)
	CMPQ R11, $8
	JB   reg_stored
	VMOVUPS Y7, 224(DI)

reg_stored:
	LEAQ (DI)(R8*4), DI
	TESTQ CX, CX
	JNZ  reg_bag
	JMP  done

	// Memory path: any other width. After the prefetch R12 walks the
	// output row and R10 counts chunks, then tail elements.
mem_bag:
	MOVQ R13, AX

mem_row:
	PREFETCH_AHEAD(mem_pf)
	ROW_AT(Y8, Y9)
	ADDQ $ROW_CODES, R9
	MOVQ DI, R12
	MOVQ R11, R10
	TESTQ R10, R10
	JZ   mem_tail

mem_loop8:
	DEQUANT8(0, Y11)
	VADDPS  (R12), Y11, Y11
	VMOVUPS Y11, (R12)
	ADDQ $8, R9
	ADDQ $32, R12
	DECQ R10
	JNZ  mem_loop8

mem_tail:
	MOVQ R8, R10
	ANDQ $7, R10
	JZ   mem_next

mem_loop1:
	MOVBLSX    (R9), R14
	VCVTSI2SSL R14, X11, X11
	VADDSS     X10, X11, X11
	VMULSS     X8, X11, X11
	VADDSS     X9, X11, X11
	VADDSS     (R12), X11, X11
	VMOVSS     X11, (R12)
	ADDQ $1, R9
	ADDQ $4, R12
	DECQ R10
	JNZ  mem_loop1

mem_next:
	ADDQ $8, BX
	DECQ CX
	DECQ AX
	JNZ  mem_row
	LEAQ (DI)(R8*4), DI
	TESTQ CX, CX
	JNZ  mem_bag

done:
	VZEROUPPER
	RET
