package nn

import (
	"fmt"
	"math"

	"recsys/internal/tensor"
)

// QuantizedTable is an int8 row-wise-quantized embedding table: each
// row stores int8 codes plus a per-row scale and offset, cutting
// storage and gather bandwidth ~4× versus fp32. The paper's Takeaway 5
// calls for "aggressive compression and novel memory technologies" to
// tame embedding capacity; row-wise int8 is the standard production
// compression for serving embeddings.
type QuantizedTable struct {
	Rows, Cols int
	codes      []int8
	scale      []float32 // per row
	offset     []float32 // per row
	label      string
}

// Quantize converts an fp32 embedding table to int8 row-wise.
func Quantize(t *EmbeddingTable) *QuantizedTable {
	q := newQuantizedTable(t)
	for r := 0; r < t.Rows; r++ {
		q.QuantizeRow(r, t.W.Row(r))
	}
	return q
}

// newQuantizedTable allocates the zeroed int8 rows for t's shape.
func newQuantizedTable(t *EmbeddingTable) *QuantizedTable {
	return &QuantizedTable{
		Rows: t.Rows, Cols: t.Cols,
		codes:  make([]int8, t.Rows*t.Cols),
		scale:  make([]float32, t.Rows),
		offset: make([]float32, t.Rows),
		label:  t.label + "/int8",
	}
}

// QuantizeRow computes row r's scale, offset, and codes from src
// (length Cols). Quantize fills a table with it from an fp32 table, and
// NewQuantizedEmbeddingTable row by row as the rows are drawn.
func (q *QuantizedTable) QuantizeRow(r int, src []float32) {
	if r < 0 || r >= q.Rows {
		panic(fmt.Sprintf("nn: quantized row %d out of range [0,%d)", r, q.Rows))
	}
	if len(src) != q.Cols {
		panic(fmt.Sprintf("nn: src length %d, want %d", len(src), q.Cols))
	}
	lo, hi := src[0], src[0]
	for _, v := range src {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := (hi - lo) / 255
	if scale == 0 {
		scale = 1e-8 // constant row: all codes map to lo
	}
	q.scale[r] = scale
	q.offset[r] = lo
	codes := q.codes[r*q.Cols : (r+1)*q.Cols]
	for c, v := range src {
		code := math.Round(float64((v - lo) / scale))
		codes[c] = int8(code - 128)
	}
}

// Name returns the table label.
func (q *QuantizedTable) Name() string { return q.label }

// Data returns the table's storage, shared, not copied: the codes
// (Rows×Cols, row-major) and the per-row scales and offsets. A
// checkpoint writes and reads the three as they are stored.
func (q *QuantizedTable) Data() (codes []int8, scale, offset []float32) {
	return q.codes, q.scale, q.offset
}

// Row dequantizes row r into dst (length Cols). The kernel
// (tensor.DequantI8) is bit-identical across tiers: the AVX2 path
// converts 8 codes per step but keeps the scalar operation order.
func (q *QuantizedTable) Row(r int, dst []float32) {
	if r < 0 || r >= q.Rows {
		panic(fmt.Sprintf("nn: quantized row %d out of range [0,%d)", r, q.Rows))
	}
	if len(dst) != q.Cols {
		panic(fmt.Sprintf("nn: dst length %d, want %d", len(dst), q.Cols))
	}
	tensor.DequantI8(dst, q.codes[r*q.Cols:(r+1)*q.Cols], q.scale[r], q.offset[r])
}

// AccumRow adds dequantized row r into dst (length Cols) without
// staging it — the fused dequantize-accumulate kernel. Per element it
// produces exactly Row-then-add bits on every tier.
func (q *QuantizedTable) AccumRow(r int, dst []float32) {
	if r < 0 || r >= q.Rows {
		panic(fmt.Sprintf("nn: quantized row %d out of range [0,%d)", r, q.Rows))
	}
	if len(dst) != q.Cols {
		panic(fmt.Sprintf("nn: dst length %d, want %d", len(dst), q.Cols))
	}
	tensor.DequantAccumI8(dst, q.codes[r*q.Cols:(r+1)*q.Cols], q.scale[r], q.offset[r])
}

// MaxAbsError returns the worst-case dequantization error of the table
// versus its fp32 source.
func (q *QuantizedTable) MaxAbsError(src *EmbeddingTable) float32 {
	if src.Rows != q.Rows || src.Cols != q.Cols {
		panic("nn: table shape mismatch")
	}
	row := make([]float32, q.Cols)
	var worst float32
	for r := 0; r < q.Rows; r++ {
		q.Row(r, row)
		srcRow := src.W.Row(r)
		for c := range row {
			d := row[c] - srcRow[c]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
