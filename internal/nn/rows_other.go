//go:build !linux

package nn

import "recsys/internal/tensor"

// allocRows gives q n zeroed bytes of int8 rows on the Go heap. On
// linux they are mapped outside it (rows_linux.go).
func allocRows(q *QuantizedTable, n int) {
	q.rows = make([]byte, n)
}

// newTableRows returns a zeroed rows×cols fp32 tensor on the Go heap.
// On linux its data is mapped outside it (rows_linux.go).
func newTableRows(rows, cols int) *tensor.Tensor {
	return tensor.New(rows, cols)
}
