package nn

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
)

// mappedBytes is the int8 row bytes mapped and not yet unmapped.
var mappedBytes atomic.Int64

// allocRows gives q n zeroed bytes of rows outside the Go heap: an
// anonymous private mapping, advised for transparent huge pages, that a
// finalizer unmaps once q is unreachable. The rows are pointer-free and
// live as long as the model, so on the heap they would only set the
// GC's pace: a 192 MB table set puts the heap goal at twice that, and
// the request garbage in between is resident until the next cycle.
// Whoever reads q.rows keeps q alive past the read (runtime.KeepAlive),
// since the slice alone does not.
func allocRows(q *QuantizedTable, n int) {
	if n == 0 {
		return
	}
	rows, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("nn: mapping %d bytes of int8 rows: %v", n, err))
	}
	_ = syscall.Madvise(rows, syscall.MADV_HUGEPAGE) // advice: a kernel without THP ignores it
	mappedBytes.Add(int64(n))
	q.rows = rows
	runtime.SetFinalizer(q, func(q *QuantizedTable) {
		if err := syscall.Munmap(q.rows); err != nil {
			panic(fmt.Sprintf("nn: unmapping %d bytes of int8 rows: %v", len(q.rows), err))
		}
		mappedBytes.Add(-int64(len(q.rows)))
	})
}
