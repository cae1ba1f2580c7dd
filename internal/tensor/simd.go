package tensor

import "fmt"

// SIMDActive reports whether the assembly kernel tier is selected —
// callers with their own tuned Go fallbacks (e.g. the fixed-width SLS
// loops in internal/nn) branch on it once per row rather than paying a
// dispatch check per element.
func SIMDActive() bool { return useAVX2 }

// AddF32 computes dst[i] += src[i] element-wise. On the AVX2 tier the
// adds run 8 lanes wide; element order and rounding are unchanged, so
// results are bit-identical across tiers. This is the SLS pooled-sum
// accumulation primitive (one call per gathered row).
func AddF32(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddF32 length mismatch %d vs %d", len(dst), len(src)))
	}
	if useAVX2 && len(dst) > 0 {
		addF32(&dst[0], &src[0], len(dst))
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// DequantI8 computes dst[i] = (float32(codes[i])+128)·scale + offset —
// the row-wise int8 embedding dequantization. The AVX2 path converts 8
// codes per step but keeps the scalar operation order (add, multiply,
// add — no FMA), so results are bit-identical across tiers.
func DequantI8(dst []float32, codes []int8, scale, offset float32) {
	if len(dst) != len(codes) {
		panic(fmt.Sprintf("tensor: DequantI8 length mismatch %d vs %d", len(dst), len(codes)))
	}
	if useAVX2 && len(dst) > 0 {
		dequantI8(&dst[0], &codes[0], len(dst), scale, offset)
		return
	}
	for i, code := range codes {
		dst[i] = (float32(code)+128)*scale + offset
	}
}

// DequantAccumI8 computes dst[i] += (float32(codes[i])+128)·scale +
// offset — the fused dequantize-accumulate that pools an int8 row
// without staging it. The AVX2 path dequantizes with DequantI8's exact
// operation order and adds once, so results are bit-identical to
// dequantize-then-AddF32 on every tier.
func DequantAccumI8(dst []float32, codes []int8, scale, offset float32) {
	if len(dst) != len(codes) {
		panic(fmt.Sprintf("tensor: DequantAccumI8 length mismatch %d vs %d", len(dst), len(codes)))
	}
	if useAVX2 && len(dst) > 0 {
		dequantAccumI8(&dst[0], &codes[0], len(dst), scale, offset)
		return
	}
	for i, code := range codes {
		dst[i] += (float32(code)+128)*scale + offset
	}
}
