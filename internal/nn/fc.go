package nn

import (
	"fmt"
	"math"
	"sync/atomic"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// FC is a fully-connected (affine) layer: Y = X·W + b, with X of shape
// [batch, In] and Y of shape [batch, Out]. Weights are stored row-major
// as [In, Out] so that the GEMM inner loop streams contiguously.
type FC struct {
	In, Out int
	W       *tensor.Tensor // [In, Out]
	B       []float32      // [Out]
	label   string

	// packed caches W in the tiled layout the packed GEMM kernel
	// consumes, built lazily on the first ForwardEx call. Weights are
	// constant during serving, so the pack cost is paid once per layer
	// rather than once per request. InvalidatePacked drops it after a
	// weight update.
	packed atomic.Pointer[tensor.PackedB]
}

// NewFC returns an FC layer with Xavier/Glorot-uniform weights drawn
// from rng (zeroed when rng is nil); it panics on non-positive dims.
func NewFC(label string, in, out int, rng *stats.RNG) *FC {
	fc := NewFCSpec(label, in, out)
	fc.W, fc.B = tensor.New(in, out), make([]float32, out)
	if rng == nil {
		return fc
	}
	bound := float32(math.Sqrt(6.0 / float64(in+out)))
	w := fc.W.Data()
	for i := range w {
		w[i] = (rng.Float32()*2 - 1) * bound
	}
	for i := range fc.B {
		fc.B[i] = (rng.Float32()*2 - 1) * 0.01
	}
	return fc
}

// Name returns the layer label.
func (f *FC) Name() string { return f.label }

// Kind reports KindFC.
func (f *FC) Kind() Kind { return KindFC }

// ForwardEx computes Y = X·W + b for X of shape [batch, In], or
// Y = ReLU(X·W + b) when relu is set: the GEMM runs against the cached
// packed weights and, above the kernel's work threshold, is split
// row-wise across workers goroutines (1 = serial, 0 = GOMAXPROCS). The
// output comes from the arena uninitialised, or is freshly allocated
// when a is nil: the GEMM's first k-panel overwrites every element, and
// the bias and the ReLU are applied in its last store
// (tensor.ParallelGemmPackedBias), so Y is written once. Results match
// tensor.Gemm, then AddBiasRows, then `if v < 0 { v = 0 }`, under the
// kernel-tier contract (bit-identical on the Go tier, FMA-fusion
// epsilon on AVX2).
func (f *FC) ForwardEx(x *tensor.Tensor, a *tensor.Arena, workers int, relu bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != f.In {
		panic(fmt.Sprintf("nn: FC %q input shape %v, want [batch %d]", f.label, x.Shape(), f.In))
	}
	y := allocDenseUninit(a, x.Dim(0), f.Out)
	tensor.ParallelGemmPackedBias(x, f.packedW(), f.B, relu, y, workers)
	return y
}

// packedW returns the cached packed weights, packing on first use.
// Concurrent first calls may pack twice; both results are identical
// and one wins the store.
func (f *FC) packedW() *tensor.PackedB {
	if pb := f.packed.Load(); pb != nil {
		return pb
	}
	pb := tensor.PackB(f.W)
	f.packed.Store(pb)
	return pb
}

// InvalidatePacked drops the cached packed weights. Anything that
// mutates W (the trainer's optimizer, checkpoint restore) must call
// this before the next ForwardEx.
func (f *FC) InvalidatePacked() {
	f.packed.Store(nil)
}

// Stats reports the per-inference work: 2·batch·In·Out FLOPs for the
// GEMM plus the bias add, streaming reads of W and X, writes of Y.
func (f *FC) Stats(batch int) OpStats {
	flops := 2*float64(batch)*float64(f.In)*float64(f.Out) + float64(batch)*float64(f.Out)
	param := bytesF32(f.In*f.Out + f.Out)
	return OpStats{
		FLOPs:      flops,
		ParamBytes: param,
		ReadBytes:  param + bytesF32(batch*f.In),
		WriteBytes: bytesF32(batch * f.Out),
	}
}

// MLP is a stack of FC layers with ReLU between them (and optionally on
// the output), matching the Bottom-FC / Top-FC blocks of Figure 3.
type MLP struct {
	Layers    []*FC
	FinalReLU bool
	label     string
}

// NewMLP builds an MLP of NewFC layers with the given widths. dims
// must contain at least two entries (input and one output width).
func NewMLP(label string, dims []int, finalReLU bool, rng *stats.RNG) *MLP {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: MLP %q needs at least 2 dims, got %v", label, dims))
	}
	m := &MLP{FinalReLU: finalReLU, label: label}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewFC(fmt.Sprintf("%s/fc%d", label, i), dims[i], dims[i+1], rng))
	}
	return m
}

// Name returns the block label.
func (m *MLP) Name() string { return m.label }

// Kind reports KindFC: an MLP's cycles are FC cycles (activation cycles
// are accounted separately by the model graph, which inserts explicit
// ReLU ops).
func (m *MLP) Kind() Kind { return KindFC }

// InDim returns the expected input width.
func (m *MLP) InDim() int { return m.Layers[0].In }

// ForwardEx runs the stack, with ReLU between layers and after the
// final layer when FinalReLU is set, each fused into its layer's
// GEMM; arena and workers are FC.ForwardEx's.
func (m *MLP) ForwardEx(x *tensor.Tensor, a *tensor.Arena, workers int) *tensor.Tensor {
	for i, fc := range m.Layers {
		x = fc.ForwardEx(x, a, workers, i+1 < len(m.Layers) || m.FinalReLU)
	}
	return x
}

// Stats sums the per-layer FC stats (activations excluded; see Kind).
func (m *MLP) Stats(batch int) OpStats {
	var s OpStats
	for _, fc := range m.Layers {
		s.Add(fc.Stats(batch))
	}
	return s
}
