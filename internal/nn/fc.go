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

	// int8Compute switches ForwardEx to the quantized integer GEMM
	// path; quant lazily caches the int8 weight representation, also
	// dropped by InvalidatePacked. See qlinear.go.
	int8Compute bool
	quant       atomic.Pointer[QuantizedLinear]
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

// Forward computes Y = X·W + b. X must be [batch, In]; the result is a
// freshly allocated [batch, Out] tensor. This is the serial reference
// path (plain blocked GEMM, no weight packing) that the fast path in
// ForwardEx is tested bit-identical against.
func (f *FC) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.checkIn(x)
	y := tensor.New(x.Dim(0), f.Out)
	tensor.Gemm(x, f.W, y)
	tensor.AddBiasRows(y, f.B)
	return y
}

// ForwardEx is the inference hot path: the GEMM runs against the
// cached packed weights and, above the kernel's work threshold, is
// split row-wise across workers goroutines (1 = serial, 0 =
// GOMAXPROCS). The output comes from the arena when one is supplied.
// Results match Forward under the kernel-tier contract (bit-identical
// on the Go tier, FMA-fusion epsilon on AVX2). With SetInt8Compute the
// GEMM instead runs in int8 (see forwardInt8), trading a bounded
// accuracy delta for integer throughput.
func (f *FC) ForwardEx(x *tensor.Tensor, a *tensor.Arena, workers int) *tensor.Tensor {
	f.checkIn(x)
	if f.int8Compute {
		return f.forwardInt8(x, a, workers)
	}
	y := allocDense(a, x.Dim(0), f.Out)
	tensor.ParallelGemmPacked(x, f.packedW(), y, workers)
	tensor.AddBiasRows(y, f.B)
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

// InvalidatePacked drops the cached packed weights and the cached int8
// quantization. Anything that mutates W (the trainer's optimizer,
// checkpoint restore) must call this before the next ForwardEx.
func (f *FC) InvalidatePacked() {
	f.packed.Store(nil)
	f.quant.Store(nil)
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

// Forward runs the stack, applying ReLU between layers and after the
// final layer when FinalReLU is set.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	for i, fc := range m.Layers {
		x = fc.Forward(x)
		if i+1 < len(m.Layers) || m.FinalReLU {
			ReLUInPlace(x)
		}
	}
	return x
}

// SetInt8Compute flips every layer of the stack between fp32 and int8
// compute. Not safe to call concurrently with in-flight forwards.
func (m *MLP) SetInt8Compute(on bool) {
	for _, fc := range m.Layers {
		fc.SetInt8Compute(on)
	}
}

// Int8Compute reports whether the stack runs the int8 path (true when
// every layer does).
func (m *MLP) Int8Compute() bool {
	for _, fc := range m.Layers {
		if !fc.Int8Compute() {
			return false
		}
	}
	return len(m.Layers) > 0
}

// ForwardEx runs the stack on the inference hot path (packed weights,
// optional arena, intra-op workers). Results match Forward under the
// kernel-tier contract.
func (m *MLP) ForwardEx(x *tensor.Tensor, a *tensor.Arena, workers int) *tensor.Tensor {
	for i, fc := range m.Layers {
		x = fc.ForwardEx(x, a, workers)
		if i+1 < len(m.Layers) || m.FinalReLU {
			ReLUInPlace(x)
		}
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
