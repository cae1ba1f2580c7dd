//go:build !amd64

package tensor

// Non-amd64 stubs. useAVX2 is always false off amd64 (detectAVX2FMA
// returns false and SetKernel refuses the tier), so none of these can
// be reached; they exist only to satisfy the dispatch call sites.

func gemmPackedRowsAVX2(ad []float32, pb *PackedB, cd []float32, lo, hi, pLo, pHi, k, n int, ep epilogue) {
	panic("tensor: AVX2 kernel tier selected on a non-amd64 build")
}

func poolRowsF32(dst, rows *float32, ids *int, n, cols int) {
	panic("tensor: AVX2 kernel tier selected on a non-amd64 build")
}

func poolRowsI8(dst *float32, rows *byte, stride int, ids *int, n, lookups, cols int) {
	panic("tensor: AVX2 kernel tier selected on a non-amd64 build")
}
