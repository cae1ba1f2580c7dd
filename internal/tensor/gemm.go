package tensor

import "fmt"

// blockSize is the cache-blocking tile edge for Gemm. 64 float32 rows
// keep a tile of each operand within a typical 32 KB L1.
const blockSize = 64

// Gemm computes C = A·B + C for row-major matrices, where A is m×k,
// B is k×n, and C is m×n. It panics on shape mismatches. The kernel is
// register/cache blocked: the innermost loop runs down contiguous rows
// of B so the compiler can keep the accumulation vectorizable.
func Gemm(a, b, c *Tensor) {
	m, k, n := checkGemm(a, b, c)
	ad, bd, cd := a.data, b.data, c.data
	for i0 := 0; i0 < m; i0 += blockSize {
		iMax := min(i0+blockSize, m)
		for p0 := 0; p0 < k; p0 += blockSize {
			pMax := min(p0+blockSize, k)
			for j0 := 0; j0 < n; j0 += blockSize {
				jMax := min(j0+blockSize, n)
				for i := i0; i < iMax; i++ {
					arow := ad[i*k : (i+1)*k]
					crow := cd[i*n : (i+1)*n]
					for p := p0; p < pMax; p++ {
						aip := arow[p]
						if aip == 0 {
							continue
						}
						brow := bd[p*n : (p+1)*n]
						for j := j0; j < jMax; j++ {
							crow[j] += aip * brow[j]
						}
					}
				}
			}
		}
	}
}

func checkGemm(a, b, c *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: Gemm requires rank-2 operands")
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: Gemm inner dimensions %d and %d differ", k, b.shape[0]))
	}
	n = b.shape[1]
	if c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: Gemm output shape %v, want [%d %d]", c.shape, m, n))
	}
	return m, k, n
}

// AddBiasRows adds the bias vector to every row of a rank-2 tensor
// in place.
func AddBiasRows(t *Tensor, bias []float32) {
	if t.Rank() != 2 {
		panic("tensor: AddBiasRows requires a rank-2 tensor")
	}
	n := t.shape[1]
	if len(bias) != n {
		panic(fmt.Sprintf("tensor: bias length %d, want %d", len(bias), n))
	}
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// Transpose returns the transposed copy of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}
