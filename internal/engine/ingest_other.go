//go:build !amd64

package engine

// idScanBlocks has no portable form: tensor.UseAVX512VBMI is false
// off amd64, so it is never called and idRun takes every list.
func idScanBlocks(b []byte, ids []int) (n, adv int, closed bool) { return 0, 0, false }
