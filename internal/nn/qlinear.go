package nn

import (
	"fmt"
	"math"

	"recsys/internal/tensor"
)

// QuantizedLinear is the int8 compute representation of an FC weight
// matrix: per-output-channel symmetric int8 weights plus the
// per-channel sums needed to correct for the activations' zero point.
// Together with dynamic per-row uint8 activation quantization it turns
// Y = X·W into an int8×int8→int32 GEMM followed by a per-element
// affine rescale — the FBGEMM-style quantized FC path. Since the
// register-tiled kernel landed, the int8 path wins on FLOPs as well as
// footprint: the GEMM runs on tensor.GemmI8 over the packed tile
// layout, with the column-major codes retained as the reference copy.
//
// Layout: codes is column-major — codes[j*In:(j+1)*In] holds output
// channel j; packed is the same matrix in tensor.PackedBI8 register-
// tile order, built once at quantization time and dropped together
// with this struct by FC.InvalidatePacked.
type QuantizedLinear struct {
	In, Out int
	codes   []int8
	scale   []float32 // per output channel: fp32 weight ≈ code · scale
	colSum  []int32   // per output channel: Σ_i codes[j*In+i]
	packed  *tensor.PackedBI8
}

// QuantizeLinear builds the int8 representation of a [In, Out] weight
// tensor. Each output channel j is quantized symmetrically:
// scale_j = maxabs(W[:,j])/127, codes rounded to nearest.
func QuantizeLinear(w *tensor.Tensor) *QuantizedLinear {
	if w.Rank() != 2 {
		panic("nn: QuantizeLinear requires a rank-2 weight tensor")
	}
	in, out := w.Dim(0), w.Dim(1)
	q := &QuantizedLinear{
		In: in, Out: out,
		codes:  make([]int8, in*out),
		scale:  make([]float32, out),
		colSum: make([]int32, out),
	}
	wd := w.Data()
	for j := 0; j < out; j++ {
		var maxAbs float32
		for i := 0; i < in; i++ {
			v := wd[i*out+j]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		s := maxAbs / 127
		if s == 0 {
			s = 1 // all-zero channel: every code quantizes to 0
		}
		q.scale[j] = s
		inv := 1 / s
		col := q.codes[j*in : (j+1)*in]
		var sum int32
		for i := 0; i < in; i++ {
			c := int8(math.Round(float64(wd[i*out+j] * inv)))
			col[i] = c
			sum += int32(c)
		}
		q.colSum[j] = sum
	}
	q.packed = tensor.PackBI8(q.codes, in, out, q.scale, q.colSum)
	return q
}

// quantizeRowI16 quantizes one activation row to uint8 codes (stored
// widened to int16, the lane width the tiled kernel's VPMADDWD
// broadcast consumes) with a dynamic asymmetric range covering
// [min(0,lo), max(0,hi)] — zero always exactly representable, so ReLU
// sparsity survives quantization. dst[i] = clamp(⌊src[i]/scale + zp +
// ½⌋) (round-half-up, expressed as a single floor so the SIMD tier can
// replay it bit-identically); the caller reconstructs x ≈ (dst[i] −
// zp)·scale with |x̂−x| ≤ scale. An all-zero row returns scale 1,
// zp 0. dst may be longer than src (the pack's KStride padding); pad
// lanes are left untouched — they only ever multiply zero weight
// codes.
func quantizeRowI16(src []float32, dst []int16) (scale float32, zp int32) {
	lo, hi := tensor.MinMaxF32(src)
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	scale = (hi - lo) / 255
	if scale == 0 {
		clear(dst[:len(src)])
		return 1, 0
	}
	inv := 1 / scale
	zp = int32(math.Round(float64(-lo * inv)))
	tensor.QuantizeRowI16(dst, src, inv, float32(zp)+0.5)
	return scale, zp
}

// SetInt8Compute switches the layer's ForwardEx between the fp32
// packed GEMM and the int8 compute path. Like SetRowCache, it must not
// race with in-flight forwards — presets flip it before a model is
// published. ForwardEx is the layer's only forward, so every scorer of
// the model (the engine, Model.CTR, the online updater's quality gate)
// runs the int8 path once it is on; the trainer refuses such a model
// (model.ErrInt8Only), since its backward differentiates the fp32 W.
func (f *FC) SetInt8Compute(on bool) { f.int8Compute = on }

// Int8Compute reports whether ForwardEx runs the int8 path.
func (f *FC) Int8Compute() bool { return f.int8Compute }

// quantizedW returns the cached int8 weights, quantizing on first use.
// Mirrors packedW: concurrent first calls may quantize twice, one
// result wins. InvalidatePacked drops this cache too.
func (f *FC) quantizedW() *QuantizedLinear {
	if q := f.quant.Load(); q != nil {
		return q
	}
	q := QuantizeLinear(f.W)
	f.quant.Store(q)
	return q
}

// forwardInt8 computes Y ≈ X·W + b in int8: each activation row is
// quantized to uint8 codes on the fly (dynamic range, asymmetric zero
// point, widened to int16 for the kernel), then one register-tiled
// int8 GEMM (tensor.GemmI8) produces the whole output with the
// zero-point correction folded into its epilogue:
//
//	Y[r][j] = (Σ_i xq[r][i]·wq[i][j] − zp_r·colSum_j)·(sx_r·sw_j) + b[j]
//
// Accuracy: per element the quantization error is bounded by
// Σ_i (sx·|ŵ_ij| + |x_i|·sw_j/2) — asserted against the fp32 twin in
// tests. The integer dots are exact on every kernel tier, so the int8
// path itself is bit-identical across tiers and row partitions.
func (f *FC) forwardInt8(x *tensor.Tensor, a *tensor.Arena, workers int) *tensor.Tensor {
	batch := x.Dim(0)
	in, out := f.In, f.Out
	// Every element of y is written below, so skip the arena zero fill.
	y := allocDenseUninit(a, batch, out)
	q := f.quantizedW()
	pb := q.packed
	ks := pb.KStride()
	var xq []int16
	var sx []float32
	var zp []int32
	if a != nil {
		xq = a.AllocI16(batch * ks)
		sx = a.AllocUninit(batch).Data()
		zp = a.AllocI32(batch)
	} else {
		xq = make([]int16, batch*ks)
		sx = make([]float32, batch)
		zp = make([]int32, batch)
	}
	xd := x.Data()
	// The quantize pass is ~1% of the GEMM's work; it stays serial so
	// the fan-out decision lives in one place (the GEMM row partition).
	for r := 0; r < batch; r++ {
		sx[r], zp[r] = quantizeRowI16(xd[r*in:(r+1)*in], xq[r*ks:r*ks+in])
	}
	yd := y.Data()
	// ParallelGemmI8 runs small problems (and workers ≤ 1) serially
	// without creating the fan-out closure, so the steady-state serving
	// path stays allocation-free.
	tensor.ParallelGemmI8(xq, sx, zp, pb, f.B, yd, batch, workers)
	return y
}

// checkIn panics with the layer's shape expectation (shared by both
// ForwardEx branches).
func (f *FC) checkIn(x *tensor.Tensor) {
	if x.Rank() != 2 || x.Dim(1) != f.In {
		panic(fmt.Sprintf("nn: FC %q input shape %v, want [batch %d]", f.label, x.Shape(), f.In))
	}
}
