//go:build amd64

#include "textflag.h"

// SLS accumulation and int8 dequantization kernels. Unlike the GEMM
// micro-kernels, addF32 and dequantI8 deliberately avoid FMA and
// preserve the Go tier's per-element operation order, so their results
// are bit-identical to the portable kernels. See the numerics contract
// in cpu.go.

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

// func dequantI8(dst *float32, codes *int8, n int, scale, offset float32)
//
// dst[i] = (float32(codes[i])+128)·scale + offset, the row-wise int8
// dequantization of nn.QuantizedTable. Separate multiply and add (no
// FMA) keep every rounding identical to the Go loop.
TEXT ·dequantI8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y4
	VBROADCASTSS offset+28(FP), Y5
	VBROADCASTSS f128<>(SB), Y6

	MOVQ CX, AX
	SHRQ $3, AX
	JZ   scalar

loop8:
	VPMOVSXBD (SI), Y0    // 8 int8 codes -> 8 int32
	VCVTDQ2PS Y0, Y0
	VADDPS    Y6, Y0, Y0
	VMULPS    Y4, Y0, Y0
	VADDPS    Y5, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  loop8

scalar:
	ANDQ $7, CX
	JZ   done

loop1:
	MOVBLSX    (SI), AX
	VCVTSI2SSL AX, X0, X0
	VADDSS     X6, X0, X0
	VMULSS     X4, X0, X0
	VADDSS     X5, X0, X0
	VMOVSS     X0, (DI)
	ADDQ $1, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  loop1

done:
	VZEROUPPER
	RET

// func dequantAccumI8(dst *float32, codes *int8, n int, scale, offset float32)
//
// dst[i] += (float32(codes[i])+128)·scale + offset — the fused
// dequantize-accumulate for pooling int8 rows without a staging pass.
// The dequantized value is produced with exactly dequantI8's operation
// order and then added in one VADDPS, matching the scalar
// dequant-then-add, so results are bit-identical across tiers.
TEXT ·dequantAccumI8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y4
	VBROADCASTSS offset+28(FP), Y5
	VBROADCASTSS f128<>(SB), Y6

	MOVQ CX, AX
	SHRQ $3, AX
	JZ   scalar

loop8:
	VPMOVSXBD (SI), Y0    // 8 int8 codes -> 8 int32
	VCVTDQ2PS Y0, Y0
	VADDPS    Y6, Y0, Y0
	VMULPS    Y4, Y0, Y0
	VADDPS    Y5, Y0, Y0
	VADDPS    (DI), Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ $8, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  loop8

scalar:
	ANDQ $7, CX
	JZ   done

loop1:
	MOVBLSX    (SI), AX
	VCVTSI2SSL AX, X0, X0
	VADDSS     X6, X0, X0
	VMULSS     X4, X0, X0
	VADDSS     X5, X0, X0
	VADDSS     (DI), X0, X0
	VMOVSS     X0, (DI)
	ADDQ $1, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  loop1

done:
	VZEROUPPER
	RET
