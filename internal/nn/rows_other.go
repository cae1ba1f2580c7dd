//go:build !linux

package nn

// allocRows gives q n zeroed bytes of rows on the Go heap. On linux
// they are mapped outside it (rows_linux.go).
func allocRows(q *QuantizedTable, n int) {
	q.rows = make([]byte, n)
}
