package nn

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"

	"recsys/internal/tensor"
)

// Embedding rows, fp32 and int8, live outside the Go heap on linux: an
// anonymous private mapping per table, advised for transparent huge
// pages, that a finalizer unmaps once the table's owner is unreachable.
// The rows are pointer-free and live as long as the model, so on the
// heap they would only set the GC's pace: a 100–200 MB table set puts
// the heap goal at twice that, no cycle runs while serving, and the
// request garbage in between stays resident. Whoever reads the rows
// keeps their owner (the QuantizedTable, or the EmbeddingTable's W
// tensor) alive past the read (runtime.KeepAlive), since a slice into
// the mapping does not.

// mappedBytes is the embedding row bytes, fp32 and int8, mapped and
// not yet unmapped.
var mappedBytes atomic.Int64

// allocRows gives q n zeroed bytes of int8 rows, unmapped with q.
func allocRows(q *QuantizedTable, n int) {
	if n == 0 {
		return
	}
	q.rows = mapRows(n)
	unmapWith(q, q.rows)
}

// newTableRows returns a zeroed rows×cols fp32 tensor whose data is
// mapped, and unmapped with the tensor. rows and cols are positive
// (NewEmbeddingTableSpec checks).
func newTableRows(rows, cols int) *tensor.Tensor {
	b := mapRows(4 * rows * cols)
	w := tensor.FromSlice(unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), rows*cols), rows, cols)
	unmapWith(w, b)
	return w
}

// mapRows maps n zeroed bytes outside the Go heap and counts them in
// mappedBytes.
func mapRows(n int) []byte {
	rows, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("nn: mapping %d bytes of embedding rows: %v", n, err))
	}
	_ = syscall.Madvise(rows, syscall.MADV_HUGEPAGE) // advice: a kernel without THP ignores it
	mappedBytes.Add(int64(n))
	return rows
}

// unmapWith unmaps rows, and takes them off mappedBytes, once owner is
// unreachable.
func unmapWith[T any](owner *T, rows []byte) {
	runtime.SetFinalizer(owner, func(*T) {
		if err := syscall.Munmap(rows); err != nil {
			panic(fmt.Sprintf("nn: unmapping %d bytes of embedding rows: %v", len(rows), err))
		}
		mappedBytes.Add(-int64(len(rows)))
	})
}
