package tensor

import (
	"fmt"
	"runtime"
)

// nr is the register-tile width of the packed GEMM micro-kernel:
// eight output columns are accumulated per inner-loop step. Measured
// on amd64 against 4- and 16-wide variants, 8 is the sweet spot: the
// compiler keeps all eight accumulators in registers, and the
// array-pointer loads below eliminate the inner-loop bounds checks
// (16-wide spills and runs ~3× slower).
const nr = 8

// minParallelMAdds is the GEMM work (m·k·n multiply-adds) below which
// goroutine fan-out costs more than it saves and the kernels run
// serially.
const minParallelMAdds = 1 << 17

// PackedB holds a k×n B operand reorganized into the layout the packed
// GEMM micro-kernel consumes: panels of blockSize rows, each panel
// stored as column tiles nr wide, so the inner loop reads B with unit
// stride regardless of n. FC layers pack their weight matrix once and
// reuse it for every forward pass — the same amortization FBGEMM's
// PackedGemmMatrixB performs for Facebook's production FC kernels.
type PackedB struct {
	K, N int
	data []float32
}

// PackB packs a rank-2 tensor for use with GemmPacked.
func PackB(b *Tensor) *PackedB {
	if b.Rank() != 2 {
		panic("tensor: PackB requires a rank-2 tensor")
	}
	k, n := b.shape[0], b.shape[1]
	pb := &PackedB{K: k, N: n, data: make([]float32, k*n)}
	for p0 := 0; p0 < k; p0 += blockSize {
		pMax := min(p0+blockSize, k)
		kc := pMax - p0
		panel := pb.data[p0*n : p0*n+kc*n]
		for j0 := 0; j0 < n; j0 += nr {
			w := min(nr, n-j0)
			tile := panel[kc*j0 : kc*j0+kc*w]
			t := 0
			for p := p0; p < pMax; p++ {
				copy(tile[t:t+w], b.data[p*n+j0:p*n+j0+w])
				t += w
			}
		}
	}
	return pb
}

func checkGemmPacked(a *Tensor, pb *PackedB, c *Tensor) (m, k, n int) {
	if a.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: GemmPacked requires rank-2 A and C")
	}
	m, k = a.shape[0], a.shape[1]
	if k != pb.K {
		panic(fmt.Sprintf("tensor: GemmPacked inner dimensions %d and %d differ", k, pb.K))
	}
	n = pb.N
	if c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: GemmPacked output shape %v, want [%d %d]", c.shape, m, n))
	}
	return m, k, n
}

// GemmPacked computes C = A·B + C against a pre-packed B. On the
// pure-Go kernel tier the accumulation order per output element is
// identical to Gemm (p ascending, with the same skip of zero A
// entries), so results are bit-identical to the serial reference
// kernel; the AVX2/FMA tier fuses each multiply-add and is equivalent
// within the FloatsClose epsilon contract (see cpu.go).
func GemmPacked(a *Tensor, pb *PackedB, c *Tensor) {
	m, k, n := checkGemmPacked(a, pb, c)
	gemmPackedRowsBlock(a.data, pb, c.data, 0, m, 0, k, k, n, epilogue{})
}

// Epilogue flags: what one packed kernel call does at the two ends of
// its k-panel. gemmKernel8x8 and gemmKernel1x8 test the same bits.
const (
	epZero = 1 << iota // start the sums at 0 instead of loading C
	epBias             // after the last multiply-add, c = c + bias[j]
	epReLU             // then, if c < 0, c = +0 (−0 and NaN are kept)
)

// epilogue says how a packed GEMM treats C. The zero value accumulates
// (C += A·B). With a bias it overwrites C with A·B + bias, or with
// ReLU(A·B + bias) when relu is set: the first k-panel starts its sums
// at zero rather than reading C, and the last adds the bias and applies
// the ReLU while the output tile is still in registers, so each output
// element is stored once in its final form. The bias add and the ReLU
// are bit for bit AddBiasRows followed by `if v < 0 { v = 0 }`.
type epilogue struct {
	bias []float32
	relu bool
}

// flags returns the kernel flags for the k-panel [p0, pMax) of a
// k-deep product: only the first panel zeroes and only the last one
// finishes, however the kc blocking splits the panels between calls.
func (e epilogue) flags(p0, pMax, k int) int {
	if e.bias == nil {
		return 0
	}
	f := 0
	if p0 == 0 {
		f |= epZero
	}
	if pMax == k {
		f |= epBias
		if e.relu {
			f |= epReLU
		}
	}
	return f
}

// relu32 is the ReLU the epilogue applies: v unless v < 0, so −0 and
// NaN pass through unchanged (Go's max(0, v) would turn −0 into +0).
func relu32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}

// gemmPackedRowsBlock runs the packed kernel over output rows [lo, hi),
// restricted to the k-panel range [pLo, pHi) — the kc dimension of the
// cache blocking — and dispatches to the tier selected at init (or via
// SetKernel). pLo/pHi must be blockSize-aligned (pHi may be k).
// Accumulating a row block by block in ascending p is the same per-row
// operation order as one full-range pass, so blocked and unblocked
// calls are bit-identical on every tier.
func gemmPackedRowsBlock(ad []float32, pb *PackedB, cd []float32, lo, hi, pLo, pHi, k, n int, ep epilogue) {
	if useAVX2 {
		gemmPackedRowsAVX2(ad, pb, cd, lo, hi, pLo, pHi, k, n, ep)
		return
	}
	gemmPackedRowsGo(ad, pb, cd, lo, hi, pLo, pHi, k, n, ep)
}

// gemmPackedRowsGo is the portable reference kernel: 8 scalar
// accumulators per column tile, bit-identical to Gemm (followed by
// AddBiasRows and the ReLU under a bias epilogue).
func gemmPackedRowsGo(ad []float32, pb *PackedB, cd []float32, lo, hi, pLo, pHi, k, n int, ep epilogue) {
	for p0 := pLo; p0 < pHi; p0 += blockSize {
		pMax := min(p0+blockSize, pHi)
		kc := pMax - p0
		panel := pb.data[p0*n : p0*n+kc*n]
		flags := ep.flags(p0, pMax, k)
		for i := lo; i < hi; i++ {
			arow := ad[i*k+p0 : i*k+pMax]
			crow := cd[i*n : (i+1)*n]
			j0 := 0
			for ; j0+nr <= n; j0 += nr {
				var bias *[nr]float32
				if flags&epBias != 0 {
					bias = (*[nr]float32)(ep.bias[j0 : j0+nr])
				}
				gemmTileGo(arow, panel[kc*j0:kc*(j0+nr)], (*[nr]float32)(crow[j0:j0+nr]), bias, flags)
			}
			if j0 < n {
				gemmPackedEdge(arow, panel, crow, kc, j0, n, ep.bias, flags)
			}
		}
	}
}

// gemmTileGo runs one row's 8-wide column tile over one k-panel: arow
// is A[i][p0:pMax], tile the packed tile, cs C[i][j0:j0+8], bias
// bias[j0:j0+8] (read only under epBias). A call of its own keeps the
// k loop's registers free of the row driver's state. Array-pointer
// conversions pin the tile accesses to compile-time-known bounds, so
// the k loop runs with no bounds checks; the nr scalar accumulators
// stay in registers across the whole k-panel.
func gemmTileGo(arow, tile []float32, cs *[nr]float32, bias *[nr]float32, flags int) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float32
	if flags&epZero == 0 {
		c0, c1, c2, c3 = cs[0], cs[1], cs[2], cs[3]
		c4, c5, c6, c7 = cs[4], cs[5], cs[6], cs[7]
	}
	for _, aip := range arow {
		bt := (*[nr]float32)(tile)
		if aip != 0 {
			c0 += aip * bt[0]
			c1 += aip * bt[1]
			c2 += aip * bt[2]
			c3 += aip * bt[3]
			c4 += aip * bt[4]
			c5 += aip * bt[5]
			c6 += aip * bt[6]
			c7 += aip * bt[7]
		}
		tile = tile[nr:]
	}
	if flags&epBias != 0 {
		c0, c1, c2, c3 = c0+bias[0], c1+bias[1], c2+bias[2], c3+bias[3]
		c4, c5, c6, c7 = c4+bias[4], c5+bias[5], c6+bias[6], c7+bias[7]
	}
	if flags&epReLU != 0 {
		c0, c1, c2, c3 = relu32(c0), relu32(c1), relu32(c2), relu32(c3)
		c4, c5, c6, c7 = relu32(c4), relu32(c5), relu32(c6), relu32(c7)
	}
	cs[0], cs[1], cs[2], cs[3] = c0, c1, c2, c3
	cs[4], cs[5], cs[6], cs[7] = c4, c5, c6, c7
}

// gemmPackedEdge handles the final n%nr output columns of one row
// within one k-panel: arow is A[i][p0:pMax], panel the packed k-panel,
// crow the full output row, bias and flags the panel's epilogue.
// Shared by both kernel tiers (the AVX2 driver falls back here for
// edge columns), and bit-identical to the original in-line loop.
func gemmPackedEdge(arow, panel, crow []float32, kc, j0, n int, bias []float32, flags int) {
	w := n - j0
	c := crow[j0:n]
	if flags&epZero != 0 {
		clear(c)
	}
	tile := panel[kc*j0 : kc*j0+kc*w]
	t := 0
	for _, aip := range arow {
		if aip != 0 {
			for jj := 0; jj < w; jj++ {
				c[jj] += aip * tile[t+jj]
			}
		}
		t += w
	}
	if flags&epBias != 0 {
		for jj := range c {
			c[jj] += bias[j0+jj]
		}
	}
	if flags&epReLU != 0 {
		for jj, v := range c {
			c[jj] = relu32(v)
		}
	}
}

// l2PanelBytes bounds the packed-B bytes one parallel kc block
// streams: the block's panels stay L2-resident while every row shard
// sweeps them, instead of each worker streaming the whole of B from
// memory per pass (which left the row-sharded kernel memory-bound at
// large batch).
const l2PanelBytes = 1 << 19

// parallelKC returns the kc block height (in B rows) for the blocked
// parallel GEMM: the largest blockSize multiple whose n-wide panel
// slab fits the l2PanelBytes budget, never below one panel.
func parallelKC(n int) int {
	rows := l2PanelBytes / (4 * n)
	rows &^= blockSize - 1
	if rows < blockSize {
		rows = blockSize
	}
	return rows
}

// ParallelGemmPacked computes C = A·B + C against a pre-packed B,
// splitting A's rows across workers goroutines (0 = GOMAXPROCS).
// Small problems (under minParallelMAdds multiply-adds) run serially.
//
// The parallel pass is cache-blocked: B's k-panels are walked in kc
// blocks of ≤ l2PanelBytes (an (mc, kc) loop nest with mc the row
// shard), and all workers sweep the same L2-resident block before the
// next one is touched, so B traffic from memory is paid once per pass
// rather than once per worker. ParallelFor's deterministic partition
// gives each output row to the same worker in every block, and the
// per-row accumulation order (panels ascending in p) is unchanged, so
// results match the serial GemmPacked exactly on every tier
// (bit-identical to Gemm on the pure-Go tier). Fan-out goes through
// ParallelFor, so a panic in any shard surfaces on the calling
// goroutine instead of killing the process.
func ParallelGemmPacked(a *Tensor, pb *PackedB, c *Tensor, workers int) {
	parallelGemmPacked(a, pb, c, workers, epilogue{})
}

// ParallelGemmPackedBias overwrites C with A·B + bias, or with
// ReLU(A·B + bias) when relu is set: the fused FC layer. C's prior
// contents are never read, so it may come from an arena uninitialised.
// The result is bit for bit the same tier's ParallelGemmPacked into a
// zeroed C, then AddBiasRows, then `if v < 0 { v = 0 }` per element,
// written by one store per element instead of four passes over C. It
// panics unless len(bias) is B's width and the inner dimension is
// positive.
func ParallelGemmPackedBias(a *Tensor, pb *PackedB, bias []float32, relu bool, c *Tensor, workers int) {
	if len(bias) != pb.N {
		panic(fmt.Sprintf("tensor: bias length %d, want %d", len(bias), pb.N))
	}
	if pb.K == 0 {
		panic("tensor: ParallelGemmPackedBias needs a positive inner dimension")
	}
	parallelGemmPacked(a, pb, c, workers, epilogue{bias: bias, relu: relu})
}

func parallelGemmPacked(a *Tensor, pb *PackedB, c *Tensor, workers int, ep epilogue) {
	m, k, n := checkGemmPacked(a, pb, c)
	workers = clampWorkers(workers, m, k, n)
	if workers <= 1 {
		gemmPackedRowsBlock(a.data, pb, c.data, 0, m, 0, k, k, n, ep)
		return
	}
	kc := parallelKC(n)
	for p0 := 0; p0 < k; p0 += kc {
		pHi := min(p0+kc, k)
		ParallelFor(m, workers, func(lo, hi int) {
			gemmPackedRowsBlock(a.data, pb, c.data, lo, hi, p0, pHi, k, n, ep)
		})
	}
}

// clampWorkers resolves a worker count for an m-row, m×k×n-work
// kernel: 0 means GOMAXPROCS, never more workers than rows, and
// problems too small to amortize goroutine fan-out get 1.
func clampWorkers(workers, m, k, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	if m*k*n < minParallelMAdds {
		return 1
	}
	return workers
}
