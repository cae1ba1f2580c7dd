//go:build amd64

package tensor

// Assembly kernel declarations (gemm_amd64.s, simd_amd64.s). All are
// NOSPLIT leaf routines over caller-owned slices; //go:noescape keeps
// the slice backing arrays off the heap.

//go:noescape
func gemmKernel8x8(a *float32, lda int, tile *float32, c *float32, ldc int, kc int, bias *float32, flags int)

//go:noescape
func gemmKernel16x16(a *float32, lda int, tile *float32, c *float32, ldc int, kc int, bias *float32, flags int)

//go:noescape
func gemmKernel4x8(a *float32, lda int, tile *float32, c *float32, ldc int, kc int, bias *float32, flags int)

//go:noescape
func gemmKernel1x8(a *float32, tile *float32, c *float32, kc int, bias *float32, flags int)

//go:noescape
func poolRowsF32(dst, rows *float32, ids *int, n, cols int)

//go:noescape
func poolRowsI8(dst *float32, rows *byte, stride int, ids *int, n, lookups, cols int)

// gemmPackedRowsAVX2 is the assembly-tier twin of gemmPackedRowsGo:
// the same k-panel blocking and row ownership. Rows go through the
// kernels in blocks: on the avx512 tier every full 16 rows to
// gemmKernel16x16, two 8-wide column tiles a call (a lone last tile to
// gemmKernel8x8, twice); then every full 8 rows to gemmKernel8x8, then
// four of the m%8 remainder to gemmKernel4x8 when at least four are
// left, then the last 1–3 rows one at a time to gemmKernel1x8 (so a
// batch of 4 runs one 4×8 call per column tile, a batch of 7 one 4×8
// and three 1×8); the n%8 edge columns of every row take the shared Go
// edge loop. Per-row accumulation proceeds panel by panel in ascending
// p on every path — each kernel runs one sequential FMA chain a row
// and column, in the same order — so a row's bits do not depend on
// which kernel, tier (avx2 or avx512) or shard ran it, and the only
// numeric deviation from the Go tier is FMA fusion, bounded by the
// FloatsClose contract. The epilogue runs inside the kernels, on the
// accumulators, with the same operations as the Go tier's.
func gemmPackedRowsAVX2(ad []float32, pb *PackedB, cd []float32, lo, hi, pLo, pHi, k, n int, ep epilogue) {
	for p0 := pLo; p0 < pHi; p0 += blockSize {
		pMax := min(p0+blockSize, pHi)
		kc := pMax - p0
		panel := pb.data[p0*n : p0*n+kc*n]
		flags := ep.flags(p0, pMax, k)
		nFull := n &^ (nr - 1)
		edge := func(rLo, rHi int) {
			if nFull < n {
				for r := rLo; r < rHi; r++ {
					gemmPackedEdge(ad[r*k+p0:r*k+pMax], panel, cd[r*n:(r+1)*n], kc, nFull, n, ep.bias, flags)
				}
			}
		}
		i := lo
		if useAVX512 {
			nPairs := n &^ (2*nr - 1)
			for ; i+16 <= hi; i += 16 {
				for j0 := 0; j0 < nPairs; j0 += 2 * nr {
					gemmKernel16x16(&ad[i*k+p0], k, &panel[kc*j0], &cd[i*n+j0], n, kc, biasAt(ep.bias, j0), flags)
				}
				if nPairs < nFull {
					for r := i; r < i+16; r += 8 {
						gemmKernel8x8(&ad[r*k+p0], k, &panel[kc*nPairs], &cd[r*n+nPairs], n, kc, biasAt(ep.bias, nPairs), flags)
					}
				}
				edge(i, i+16)
			}
		}
		for ; i+8 <= hi; i += 8 {
			for j0 := 0; j0 < nFull; j0 += nr {
				gemmKernel8x8(&ad[i*k+p0], k, &panel[kc*j0], &cd[i*n+j0], n, kc, biasAt(ep.bias, j0), flags)
			}
			edge(i, i+8)
		}
		if i+4 <= hi {
			for j0 := 0; j0 < nFull; j0 += nr {
				gemmKernel4x8(&ad[i*k+p0], k, &panel[kc*j0], &cd[i*n+j0], n, kc, biasAt(ep.bias, j0), flags)
			}
			edge(i, i+4)
			i += 4
		}
		for ; i < hi; i++ {
			for j0 := 0; j0 < nFull; j0 += nr {
				gemmKernel1x8(&ad[i*k+p0], &panel[kc*j0], &cd[i*n+j0], kc, biasAt(ep.bias, j0), flags)
			}
			edge(i, i+1)
		}
	}
}

// biasAt returns &bias[j0] for a kernel's bias argument, or nil when
// there is no bias (the kernel reads it only under epBias).
func biasAt(bias []float32, j0 int) *float32 {
	if bias == nil {
		return nil
	}
	return &bias[j0]
}
