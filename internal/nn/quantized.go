package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"recsys/internal/tensor"
)

// QuantizedTable is an int8 row-wise-quantized embedding table: each
// row stores int8 codes plus a per-row scale and offset, cutting
// storage and gather bandwidth ~4× versus fp32. The paper's Takeaway 5
// calls for "aggressive compression and novel memory technologies" to
// tame embedding capacity; row-wise int8 is the standard production
// compression for serving embeddings.
//
// Each row is one contiguous run of Cols+8 bytes: its fp32 scale and
// offset (little-endian), then its Cols codes — the layout
// tensor.PoolRowsI8 pools, so a gathered row costs one memory access,
// not one for the codes and another for the scale and offset.
type QuantizedTable struct {
	Rows, Cols int
	rows       []byte // Rows runs of Cols+8 bytes
	label      string
}

// Quantize converts an fp32 embedding table to int8 row-wise.
func Quantize(t *EmbeddingTable) *QuantizedTable {
	q := newQuantizedTable(t)
	for r := 0; r < t.Rows; r++ {
		q.QuantizeRow(r, t.W.Row(r))
	}
	runtime.KeepAlive(t.W)
	return q
}

// newQuantizedTable allocates the zeroed int8 rows for t's shape, the
// one place rows are allocated: through allocRows, outside the Go heap
// on linux.
func newQuantizedTable(t *EmbeddingTable) *QuantizedTable {
	q := &QuantizedTable{Rows: t.Rows, Cols: t.Cols, label: t.label + "/int8"}
	allocRows(q, t.Rows*(t.Cols+8))
	return q
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
	row := q.row(r)
	binary.LittleEndian.PutUint32(row, math.Float32bits(scale))
	binary.LittleEndian.PutUint32(row[4:], math.Float32bits(lo))
	codes := row[8:]
	for c, v := range src {
		code := math.Round(float64((v - lo) / scale))
		codes[c] = byte(int8(code - 128))
	}
	runtime.KeepAlive(q)
}

// Name returns the table label.
func (q *QuantizedTable) Name() string { return q.label }

// RowBytes returns the table's storage, shared, not copied: Rows runs
// of stride = Cols+8 bytes, each the row's scale and offset, then its
// codes. A checkpoint writes and reads the three as separate blocks
// through strided views of it. On linux the bytes are outside the Go
// heap and are unmapped once q is unreachable, so the caller keeps q
// alive past its last access (runtime.KeepAlive).
func (q *QuantizedTable) RowBytes() (rows []byte, stride int) {
	return q.rows, q.Cols + 8
}

// row returns row r's run of Cols+8 bytes.
func (q *QuantizedTable) row(r int) []byte {
	rows, stride := q.RowBytes()
	return rows[r*stride : (r+1)*stride]
}

// Row dequantizes row r into dst (length Cols) with
// tensor.DequantRowI8: the values tensor.PoolRowsI8 adds when it pools
// the row, bit for bit.
func (q *QuantizedTable) Row(r int, dst []float32) {
	if r < 0 || r >= q.Rows {
		panic(fmt.Sprintf("nn: quantized row %d out of range [0,%d)", r, q.Rows))
	}
	if len(dst) != q.Cols {
		panic(fmt.Sprintf("nn: dst length %d, want %d", len(dst), q.Cols))
	}
	tensor.DequantRowI8(dst, q.row(r))
	runtime.KeepAlive(q)
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
	runtime.KeepAlive(src.W)
	return worst
}
