//go:build amd64

#include "textflag.h"

// SLS accumulation kernels. Unlike the GEMM micro-kernels, addF32 and
// poolRowsI8 deliberately avoid FMA and preserve the Go tier's
// per-element operation order, so their results are bit-identical to
// the portable kernels. See the numerics contract in cpu.go.

// 128.0, the row-wise int8 code bias (codes are stored as code-128).
DATA f128<>+0(SB)/4, $0x43000000
GLOBL f128<>(SB), RODATA|NOPTR, $4

// func addF32(dst, src *float32, n int)
//
// dst[i] += src[i] for i < n. Element-wise adds vectorize without
// changing any individual rounding, so this is bit-identical to the
// scalar loop.
TEXT ·addF32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	MOVQ CX, AX
	SHRQ $5, AX           // 32-element chunks
	JZ   v8

loop32:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  loop32

v8:
	MOVQ CX, AX
	ANDQ $31, AX
	MOVQ AX, CX
	SHRQ $3, AX           // 8-element chunks
	JZ   scalar

loop8:
	VMOVUPS (SI), Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  loop8

scalar:
	ANDQ $7, CX
	JZ   done

loop1:
	VMOVSS (SI), X0
	VADDSS (DI), X0, X0
	VMOVSS X0, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  loop1

done:
	VZEROUPPER
	RET

// The fused int8 row layout (simd.go): scale, offset, then the codes.
#define ROW_SCALE 0
#define ROW_OFFSET 4
#define ROW_CODES 8

// PF_AHEAD is how many IDs ahead of the row being pooled poolRowsI8
// prefetches: far enough to cover a DRAM miss behind the adds of the
// rows in between, near enough that the line is still in L1.
#define PF_AHEAD 12

// PREFETCH_AHEAD prefetches both ends of the row PF_AHEAD IDs on (a
// row may straddle two lines), unless the bag ends first. It uses R10
// and R12; SI is the table, DX the stride, BX the current ID, CX the
// IDs left.
#define PREFETCH_AHEAD(skip) \
	CMPQ CX, $PF_AHEAD \
	JBE  skip \
	MOVQ (PF_AHEAD*8)(BX), R10 \
	IMULQ DX, R10 \
	LEAQ -1(R10)(DX*1), R12 \
	PREFETCHT0 (SI)(R10*1) \
	PREFETCHT0 (SI)(R12*1) \
skip:

// DEQUANT8 dequantizes 8 codes at off(R9) into tmp with the Go tier's
// operation order: convert, +128 (Y10), ·scale (Y8), +offset (Y9).
#define DEQUANT8(off, tmp) \
	VPMOVSXBD off(R9), tmp \
	VCVTDQ2PS tmp, tmp \
	VADDPS    Y10, tmp, tmp \
	VMULPS    Y8, tmp, tmp \
	VADDPS    Y9, tmp, tmp

// func poolRowsI8(dst *float32, rows *byte, stride int, ids *int, n, cols int)
//
// dst[c] += (float32(code_c)+128)·scale + offset for each of the n
// fused rows ids[0..n) of rows, in ids order: one call per bag of an
// int8 SLS. IDs are validated by the caller. When cols is a multiple
// of 8 up to 64, dst lives in Y0–Y7 for the whole bag and is stored
// once; otherwise each row is added into dst in memory, 8 lanes then
// a scalar tail. Separate multiply and add (no FMA) keep every
// rounding identical to PoolRowsI8's Go loop.
TEXT ·poolRowsI8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ ids+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ cols+40(FP), R8
	VBROADCASTSS f128<>(SB), Y10

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
	PREFETCH_AHEAD(reg_row)
	MOVQ (BX), R9
	IMULQ DX, R9
	ADDQ SI, R9
	VBROADCASTSS ROW_SCALE(R9), Y8
	VBROADCASTSS ROW_OFFSET(R9), Y9
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
	PREFETCH_AHEAD(mem_row)
	MOVQ (BX), R9
	IMULQ DX, R9
	ADDQ SI, R9
	VBROADCASTSS ROW_SCALE(R9), Y8
	VBROADCASTSS ROW_OFFSET(R9), Y9
	ADDQ $ROW_CODES, R9
	MOVQ DI, R13
	MOVQ R11, AX
	TESTQ AX, AX
	JZ   mem_tail

mem_loop8:
	DEQUANT8(0, Y11)
	VADDPS  (R13), Y11, Y11
	VMOVUPS Y11, (R13)
	ADDQ $8, R9
	ADDQ $32, R13
	DECQ AX
	JNZ  mem_loop8

mem_tail:
	MOVQ R8, AX
	ANDQ $7, AX
	JZ   mem_next

mem_loop1:
	MOVBLSX    (R9), R12
	VCVTSI2SSL R12, X11, X11
	VADDSS     X10, X11, X11
	VMULSS     X8, X11, X11
	VADDSS     X9, X11, X11
	VADDSS     (R13), X11, X11
	VMOVSS     X11, (R13)
	ADDQ $1, R9
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
