package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PoolRowsF32 adds the rows ids[0], ids[1], … of rows (row-major,
// len(dst) wide) to dst in ids order: dst[i] += rows[id·len(dst)+i],
// the accumulator the first operand of each add. It panics on an ID
// outside [0, len(rows)/len(dst)); a zero-width dst pools nothing. This
// is the fp32 SLS pooled sum, one call per bag. On the AVX2 tier the
// adds run 8 lanes wide: for widths that are a multiple of 8 up to 64
// the output row stays in YMM registers across the bag and the row a
// fixed number of IDs ahead is prefetched; other widths load, add and
// store dst per row. On the Go tier the production widths 32 and 64
// (Table I) take fixed-size array loops, which the compiler runs free
// of bounds checks. Every element sees the same adds in the same order
// on both tiers, so results are bit-identical across tiers.
func PoolRowsF32(dst, rows []float32, ids []int) {
	cols := len(dst)
	if cols == 0 {
		return
	}
	n := len(rows) / cols
	for _, id := range ids {
		if uint(id) >= uint(n) {
			panic(fmt.Sprintf("tensor: PoolRowsF32 row %d out of range [0,%d)", id, n))
		}
	}
	if useAVX2 && len(ids) > 0 {
		poolRowsF32(&dst[0], &rows[0], &ids[0], len(ids), cols)
		return
	}
	switch cols {
	case 32:
		d := (*[32]float32)(dst)
		for _, id := range ids {
			src := (*[32]float32)(rows[id*32:])
			for j := range d {
				d[j] += src[j]
			}
		}
	case 64:
		d := (*[64]float32)(dst)
		for _, id := range ids {
			src := (*[64]float32)(rows[id*64:])
			for j := range d {
				d[j] += src[j]
			}
		}
	default:
		for _, id := range ids {
			for j, v := range rows[id*cols : id*cols+cols] {
				dst[j] += v
			}
		}
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
