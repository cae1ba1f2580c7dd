package nn

import (
	"fmt"

	"recsys/internal/tensor"
)

// DotInteraction computes pairwise dot products between NumVec feature
// vectors of width Dim for every sample — the BatchMatMul-based feature
// interaction used by heavyweight ranking models (the BatchMatMul
// operator that dominates RMC3 in Figure 7). The output per sample is
// the strictly-lower-triangular part of Z = F·Fᵀ, flattened, optionally
// concatenated with the first (dense) feature vector, as in DLRM.
type DotInteraction struct {
	NumVec, Dim int
	// IncludeDense prepends the first feature vector to the interaction
	// output, matching DLRM's dot interaction.
	IncludeDense bool
	label        string
}

// NewDotInteraction returns an interaction over numVec vectors of width
// dim per sample.
func NewDotInteraction(label string, numVec, dim int, includeDense bool) *DotInteraction {
	if numVec < 2 || dim <= 0 {
		panic(fmt.Sprintf("nn: DotInteraction needs numVec >= 2 and dim > 0, got %d, %d", numVec, dim))
	}
	return &DotInteraction{NumVec: numVec, Dim: dim, IncludeDense: includeDense, label: label}
}

// Name returns the op label.
func (d *DotInteraction) Name() string { return d.label }

// Kind reports KindBatchMM.
func (d *DotInteraction) Kind() Kind { return KindBatchMM }

// OutDim returns the per-sample output width.
func (d *DotInteraction) OutDim() int {
	n := d.NumVec * (d.NumVec - 1) / 2
	if d.IncludeDense {
		n += d.Dim
	}
	return n
}

// ForwardEx computes the interaction. Input is [batch, NumVec*Dim]
// with the vectors stored consecutively per sample; the output,
// [batch, OutDim()], is carved from the arena (fresh when a is nil).
func (d *DotInteraction) ForwardEx(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.NumVec*d.Dim {
		panic(fmt.Sprintf("nn: DotInteraction input shape %v, want [batch %d]", x.Shape(), d.NumVec*d.Dim))
	}
	batch := x.Dim(0)
	out := allocDense(a, batch, d.OutDim())
	for b := 0; b < batch; b++ {
		in := x.Row(b)
		dst := out.Row(b)
		off := 0
		if d.IncludeDense {
			copy(dst[:d.Dim], in[:d.Dim])
			off = d.Dim
		}
		for i := 1; i < d.NumVec; i++ {
			vi := in[i*d.Dim : (i+1)*d.Dim]
			for j := 0; j < i; j++ {
				vj := in[j*d.Dim : (j+1)*d.Dim]
				var sum float32
				for k := 0; k < d.Dim; k++ {
					sum += vi[k] * vj[k]
				}
				dst[off] = sum
				off++
			}
		}
	}
	return out
}

// Stats reports the batched-GEMM work: NumVec² ∕ 2 dot products of
// length Dim per sample.
func (d *DotInteraction) Stats(batch int) OpStats {
	pairs := float64(d.NumVec*(d.NumVec-1)) / 2
	return OpStats{
		FLOPs:      float64(batch) * pairs * 2 * float64(d.Dim),
		ReadBytes:  bytesF32(batch * d.NumVec * d.Dim),
		WriteBytes: bytesF32(batch * d.OutDim()),
	}
}
