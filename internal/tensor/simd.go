package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

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

// Row-wise int8 embedding rows (nn.QuantizedTable) are stored fused:
// each row is one run of len(dst)+8 bytes, its fp32 scale and offset
// (little-endian) followed by its int8 codes. Element i dequantizes to
// (float32(code_i)+128)·scale + offset. Both kernels below compute that
// with a separate multiply and add (no FMA) in this order on every
// tier, so their results are bit-identical across tiers.

// i8RowHeader is the bytes ahead of a fused row's codes: scale, offset.
const i8RowHeader = 8

// i8RowParams decodes a fused row's scale and offset.
func i8RowParams(row []byte) (scale, offset float32) {
	return math.Float32frombits(binary.LittleEndian.Uint32(row)),
		math.Float32frombits(binary.LittleEndian.Uint32(row[4:]))
}

// DequantRowI8 writes the dequantized fused row (len(dst)+8 bytes) into
// dst. The conversion to float32 of the product is explicit, and the Go
// spec forbids fusing an explicitly rounded product into an FMA, so
// this loop is the reference the AVX2 pooling kernel matches on any
// GOAMD64 level.
func DequantRowI8(dst []float32, row []byte) {
	if len(row) != len(dst)+i8RowHeader {
		panic(fmt.Sprintf("tensor: DequantRowI8 row of %d bytes for %d elements", len(row), len(dst)))
	}
	scale, offset := i8RowParams(row)
	for i, b := range row[i8RowHeader:] {
		dst[i] = float32((float32(int8(b))+128)*scale) + offset
	}
}

// PoolRowsI8 adds the dequantized fused rows ids[0], ids[1], … to dst
// in ids order: row id is rows[id·stride : id·stride+len(dst)+8]. Per
// element it adds exactly what DequantRowI8 writes, in the same order,
// so a bag pooled here equals dequantize-then-add on every tier. It
// panics on an ID outside [0, len(rows)/stride). On the AVX2 tier one
// call pools the whole bag: for widths that are a multiple of 8 up to
// 64 the output row stays in YMM registers across the bag, and the row
// a fixed number of IDs ahead is prefetched (other widths load, add and
// store dst per row).
func PoolRowsI8(dst []float32, rows []byte, stride int, ids []int) {
	if stride < len(dst)+i8RowHeader {
		panic(fmt.Sprintf("tensor: PoolRowsI8 stride %d for %d elements", stride, len(dst)))
	}
	n := len(rows) / stride
	for _, id := range ids {
		if uint(id) >= uint(n) {
			panic(fmt.Sprintf("tensor: PoolRowsI8 row %d out of range [0,%d)", id, n))
		}
	}
	if useAVX2 && len(dst) > 0 && len(ids) > 0 {
		poolRowsI8(&dst[0], &rows[0], stride, &ids[0], len(ids), len(dst))
		return
	}
	for _, id := range ids {
		row := rows[id*stride : id*stride+i8RowHeader+len(dst)]
		scale, offset := i8RowParams(row)
		codes := row[i8RowHeader:]
		for i := range dst {
			dst[i] += float32((float32(int8(codes[i]))+128)*scale) + offset
		}
	}
}
