package nn

import (
	"math"
	"testing"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// TestQuantizeLinearRoundTrip: each code must reconstruct its weight
// within half a quantization step, and colSum must be the exact column
// sum (it feeds the zero-point correction, where an off-by-one would
// bias every output).
func TestQuantizeLinearRoundTrip(t *testing.T) {
	rng := stats.NewRNG(11)
	fc := NewFC("t", 37, 9, rng)
	q := QuantizeLinear(fc.W)
	if q.In != 37 || q.Out != 9 {
		t.Fatalf("shape %dx%d", q.In, q.Out)
	}
	w := fc.W.Data()
	for j := 0; j < q.Out; j++ {
		var sum int32
		for i := 0; i < q.In; i++ {
			c := q.codes[j*q.In+i]
			sum += int32(c)
			if d := math.Abs(float64(float32(c)*q.scale[j] - w[i*q.Out+j])); d > float64(q.scale[j])/2*1.0001 {
				t.Fatalf("channel %d row %d: reconstruction error %g > scale/2 %g", j, i, d, q.scale[j]/2)
			}
		}
		if sum != q.colSum[j] {
			t.Fatalf("channel %d: colSum %d, want %d", j, q.colSum[j], sum)
		}
	}
}

// An all-zero channel must quantize to all-zero codes with a nonzero
// scale (no NaN/Inf from 0/0).
func TestQuantizeLinearZeroChannel(t *testing.T) {
	w := tensor.New(4, 2)
	wd := w.Data()
	// channel 1 stays zero; channel 0 gets values.
	wd[0*2+0], wd[1*2+0], wd[2*2+0], wd[3*2+0] = 1, -2, 0.5, 3
	q := QuantizeLinear(w)
	if q.scale[1] == 0 {
		t.Fatal("zero channel got zero scale")
	}
	for i := 0; i < 4; i++ {
		if q.codes[1*4+i] != 0 {
			t.Fatalf("zero channel code %d nonzero", i)
		}
	}
	if q.colSum[1] != 0 {
		t.Fatalf("zero channel colSum %d", q.colSum[1])
	}
}

// TestQuantizeRowI16RoundTrip: every dequantized activation must land
// within one step of the original (half a step from rounding, up to
// half more when the clamp bites at the range edge), codes must stay
// in uint8 range, and zero must be exactly representable so ReLU
// sparsity survives quantization.
func TestQuantizeRowI16RoundTrip(t *testing.T) {
	rng := stats.NewRNG(5)
	src := make([]float32, 101)
	for i := range src {
		src[i] = (rng.Float32()*2 - 1) * 3
	}
	src[7] = 0 // zero must reconstruct exactly
	dst := make([]int16, len(src))
	sx, zp := quantizeRowI16(src, dst)
	if sx <= 0 {
		t.Fatalf("scale %g", sx)
	}
	for i, v := range src {
		if dst[i] < 0 || dst[i] > 255 {
			t.Fatalf("elem %d: code %d outside uint8 range", i, dst[i])
		}
		back := float32(int32(dst[i])-zp) * sx
		if d := math.Abs(float64(back - v)); d > float64(sx)*1.0001 {
			t.Fatalf("elem %d: |%g - %g| = %g > step %g", i, back, v, d, sx)
		}
	}
	if back := float32(int32(dst[7])-zp) * sx; back != 0 {
		t.Fatalf("zero reconstructs to %g", back)
	}
	// All-zero row: scale 1, zp 0, all codes 0.
	zeros := make([]float32, 8)
	qz := make([]int16, 8)
	sx, zp = quantizeRowI16(zeros, qz)
	if sx != 1 || zp != 0 {
		t.Fatalf("zero row: scale %g zp %d", sx, zp)
	}
	for _, c := range qz {
		if c != 0 {
			t.Fatal("zero row produced nonzero code")
		}
	}
	// A strictly-positive row must still cover zero (lo clamps to 0).
	pos := []float32{1, 2, 3, 4}
	qp := make([]int16, 4)
	_, zp = quantizeRowI16(pos, qp)
	if zp != 0 {
		t.Fatalf("positive row zp = %d, want 0", zp)
	}
}

// TestFCInt8AccuracyBound is the acceptance check for ISSUE item (d):
// the int8 path's error against the fp32 twin must stay under the
// per-element analytic bound. Writing y_q = Σ x̂_i·ŵ_ij + b (x̂, ŵ the
// dequantized operands — the zero point cancels exactly in integer
// arithmetic), the triangle inequality gives
//
//	|y_q − y| ≤ Σ_i (|x̂_i−x_i|·|ŵ_ij| + |x_i|·|ŵ_ij−w_ij|)
//	         ≤ Σ_i (sx·|ŵ_ij| + |x_i|·sw_j/2)
//
// using |x̂−x| ≤ sx (½ step of rounding + up to ½ step of edge clamp)
// and |ŵ−w| ≤ sw/2. A small fp32 slack covers the float rescale.
func TestFCInt8AccuracyBound(t *testing.T) {
	rng := stats.NewRNG(21)
	for _, dims := range [][2]int{{64, 32}, {128, 64}, {17, 9}} {
		in, out := dims[0], dims[1]
		fc := NewFC("t", in, out, rng)
		const batch = 6
		x := tensor.New(batch, in)
		xd := x.Data()
		for i := range xd {
			xd[i] = (rng.Float32()*2 - 1) * 4
		}
		want := fc.ForwardEx(x, nil, 1, false) // fp32, before the switch
		fc.SetInt8Compute(true)
		if !fc.Int8Compute() {
			t.Fatal("Int8Compute false after SetInt8Compute")
		}
		got := fc.ForwardEx(x, nil, 1, false)
		q := fc.quantizedW()

		wantD, gotD := want.Data(), got.Data()
		for r := 0; r < batch; r++ {
			row := xd[r*in : (r+1)*in]
			scratch := make([]int16, in)
			sx, _ := quantizeRowI16(row, scratch)
			for j := 0; j < out; j++ {
				bound := 0.0
				sw := float64(q.scale[j])
				for i := 0; i < in; i++ {
					what := math.Abs(float64(q.codes[j*in+i])) * sw
					bound += float64(sx)*what + math.Abs(float64(row[i]))*sw/2
				}
				d := math.Abs(float64(gotD[r*out+j] - wantD[r*out+j]))
				slack := 1e-4*math.Abs(float64(wantD[r*out+j])) + 1e-5
				if d > bound+slack {
					t.Errorf("%dx%d row %d out %d: error %g exceeds analytic bound %g", in, out, r, j, d, bound)
				}
			}
		}
	}
}

// The int8 path partitions rows exactly like the fp32 kernel, and each
// row's integer arithmetic is independent of sharding — parallel must
// be bit-identical to serial (on every kernel tier: the dots are
// integer-exact).
func TestFCInt8ParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(31)
	fc := NewFC("t", 96, 48, rng)
	fc.SetInt8Compute(true)
	// 64·96·48 madds > 1<<17 so workers actually fan out.
	x := tensor.New(64, 96)
	xd := x.Data()
	for i := range xd {
		xd[i] = rng.Float32()*2 - 1
	}
	serial := fc.ForwardEx(x, nil, 1, false)
	for _, workers := range []int{2, 3, 8} {
		par := fc.ForwardEx(x, nil, workers, false)
		if !tensor.Equal(par, serial, 0) {
			t.Fatalf("workers=%d not bit-identical to serial", workers)
		}
	}
}

// InvalidatePacked must drop the cached quantization: after a weight
// update the int8 path has to see the new weights.
func TestInvalidatePackedDropsQuant(t *testing.T) {
	rng := stats.NewRNG(41)
	fc := NewFC("t", 32, 16, rng)
	fc.SetInt8Compute(true)
	x := tensor.New(2, 32)
	xd := x.Data()
	for i := range xd {
		xd[i] = rng.Float32()
	}
	before := append([]float32(nil), fc.ForwardEx(x, nil, 1, false).Data()...)
	qBefore := fc.quantizedW()
	w := fc.W.Data()
	for i := range w {
		w[i] *= 3
	}
	fc.InvalidatePacked()
	after := fc.ForwardEx(x, nil, 1, false).Data()
	qAfter := fc.quantizedW()
	if qBefore == qAfter {
		t.Fatal("QuantizedLinear not rebuilt after InvalidatePacked")
	}
	if qBefore.packed == qAfter.packed {
		t.Fatal("PackedBI8 not rebuilt after InvalidatePacked")
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("int8 output unchanged after weight update + InvalidatePacked")
	}
}

// TestMLPInt8Stack: the stacked int8 MLP must track its fp32 twin.
// Per-layer error is bounded analytically (TestFCInt8AccuracyBound);
// through the stack it compounds through 1-Lipschitz ReLUs, so the
// test uses a quantization-scale tolerance far above fp32 noise and
// far below activation scale. Deterministic seeds keep it stable.
func TestMLPInt8Stack(t *testing.T) {
	rng := stats.NewRNG(51)
	m := NewMLP("t", []int{64, 128, 64, 1}, false, rng)
	x := tensor.New(8, 64)
	xd := x.Data()
	for i := range xd {
		xd[i] = (rng.Float32()*2 - 1) * 2
	}
	if m.Int8Compute() {
		t.Fatal("Int8Compute true before SetInt8Compute")
	}
	want := m.ForwardEx(x, nil, 1) // fp32 reference, before the switch
	m.SetInt8Compute(true)
	if !m.Int8Compute() {
		t.Fatal("Int8Compute false after SetInt8Compute")
	}
	got := m.ForwardEx(x, tensor.NewArena(), 1)
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		d := math.Abs(float64(gd[i] - wd[i]))
		if d > 0.05+0.05*math.Abs(float64(wd[i])) {
			t.Fatalf("elem %d: int8 %g vs fp32 %g (|Δ|=%g)", i, gd[i], wd[i], d)
		}
	}
}

// The int8 hot path must be heap-allocation-free in steady state: the
// quantized activations come from the arena's byte slab, the output
// from the float slab.
func TestFCInt8ZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(61)
	m := NewMLP("t", []int{64, 128, 32}, true, rng)
	m.SetInt8Compute(true)
	x := tensor.New(4, 64)
	xd := x.Data()
	for i := range xd {
		xd[i] = rng.Float32()
	}
	arena := tensor.NewArena()
	run := func() {
		arena.Reset()
		m.ForwardEx(x, arena, 1)
	}
	run() // grow slabs
	run() // right-sized after first Reset
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("int8 ForwardEx allocates %v objects/op in steady state", allocs)
	}
}
