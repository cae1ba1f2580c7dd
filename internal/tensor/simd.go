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

// i8PrefetchAhead is how many IDs ahead of the row being pooled the
// int8 assembly kernel prefetches, counted through a call's IDs across
// bag boundaries: of 12, 16, 24, 32, 48 and 64, the distance that
// pooled the served shape (32 tables of 150 000 40-byte rows, Zipf IDs)
// fastest without slowing a uniform, a 1M-row or a cache-resident table
// by more than 5 % (EXPERIMENTS.md, "One int8 kernel call per table and
// row shard").
const i8PrefetchAhead = 32

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

// PoolRowsI8 pools bags of dequantized fused rows: dst holds
// len(dst)/cols output rows of cols elements and ids as many bags of
// equal length, and output row k gets the rows of bag k added in ids
// order, where row id is rows[id·stride : id·stride+cols+8]. Per element
// it adds exactly what DequantRowI8 writes, in the same order, so a bag
// pooled here equals dequantize-then-add on every tier. It panics, before
// dst is touched, on an ID outside [0, len(rows)/stride) anywhere in the
// call, or when the shapes disagree. This is the int8 SLS pooled sum,
// one call for every bag of a table's row shard. On the AVX2 tier the
// whole call is one kernel whose prefetch runs a fixed number of IDs
// ahead through the call's IDs, across bag boundaries, so the next
// bag's first rows are in flight while the current bag finishes. Widths
// that are a multiple of 8 up to 64 keep the output row in YMM registers
// across a bag; other widths load, add and store dst per row.
func PoolRowsI8(dst []float32, cols int, rows []byte, stride int, ids []int) {
	if cols < 1 || len(dst)%cols != 0 || stride < cols+i8RowHeader {
		panic(fmt.Sprintf("tensor: PoolRowsI8 stride %d for %d of %d elements", stride, cols, len(dst)))
	}
	bags := len(dst) / cols
	if len(ids) != 0 && (bags == 0 || len(ids)%bags != 0) {
		panic(fmt.Sprintf("tensor: PoolRowsI8 %d IDs for %d bags", len(ids), bags))
	}
	n := len(rows) / stride
	for _, id := range ids {
		if uint(id) >= uint(n) {
			panic(fmt.Sprintf("tensor: PoolRowsI8 row %d out of range [0,%d)", id, n))
		}
	}
	if len(ids) == 0 {
		return
	}
	lookups := len(ids) / bags
	if useAVX2 {
		poolRowsI8(&dst[0], &rows[0], stride, &ids[0], len(ids), lookups, cols)
		return
	}
	for k := 0; k < bags; k++ {
		d := dst[k*cols : k*cols+cols]
		for _, id := range ids[k*lookups : k*lookups+lookups] {
			row := rows[id*stride : id*stride+i8RowHeader+cols]
			scale, offset := i8RowParams(row)
			codes := row[i8RowHeader:]
			for i := range d {
				d[i] += float32((float32(int8(codes[i]))+128)*scale) + offset
			}
		}
	}
}
