//go:build amd64

package engine

// idScanBlocks takes list elements from b[0:] a 64-byte block at a
// time into ids, while at least 64 bytes of b and idBlockMax slots of
// ids remain, and returns the IDs written, the bytes taken and whether
// the last element taken closed the list. It takes a block only when
// every complete element in it, through the first ']', is 0 or
// [1-9][0-9]{0,7} followed by ',' or ']', and stops at the first block
// it refuses. Implemented in ingest_amd64.s; the caller checks
// tensor.UseAVX512VBMI first.
//
//go:noescape
func idScanBlocks(b []byte, ids []int) (n, adv int, closed bool)
