package nn

import (
	"math"
	"testing"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func TestKindString(t *testing.T) {
	if KindFC.String() != "FC" || KindSLS.String() != "SparseLengthsSum" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting wrong")
	}
	if len(Kinds()) != 8 {
		t.Errorf("Kinds() = %d entries, want 8", len(Kinds()))
	}
}

func TestOpStatsAddAndIntensity(t *testing.T) {
	a := OpStats{FLOPs: 100, ReadBytes: 40, WriteBytes: 10, ParamBytes: 20}
	b := OpStats{FLOPs: 50, ReadBytes: 10, WriteBytes: 0, Irregular: true}
	a.Add(b)
	if a.FLOPs != 150 || a.ReadBytes != 50 || !a.Irregular {
		t.Errorf("Add = %+v", a)
	}
	if got := a.Intensity(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Intensity = %v, want 2.5", got)
	}
	var zero OpStats
	if zero.Intensity() != 0 {
		t.Error("zero stats intensity should be 0")
	}
}

// reluInPlace replaces every element v < 0 with +0. −0 and NaN are
// kept as they are (Go's max(0, v) would turn −0 into +0); this is the
// exact rule the fused FC epilogue applies
// (tensor.ParallelGemmPackedBias), and the unfused reference the FC
// tests hold it to.
func reluInPlace(t *tensor.Tensor) {
	d := t.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

func TestReLUInPlace(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 0, 2, -3.5}, 4)
	reluInPlace(x)
	want := []float32{0, 0, 2, 0}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Errorf("ReLU[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestSigmoidInPlace(t *testing.T) {
	x := tensor.FromSlice([]float32{0, 100, -100}, 3)
	SigmoidInPlace(x)
	if d := x.Data()[0] - 0.5; d > 1e-6 || d < -1e-6 {
		t.Errorf("sigmoid(0) = %v", x.Data()[0])
	}
	if x.Data()[1] < 0.999 || x.Data()[2] > 0.001 {
		t.Errorf("sigmoid saturation wrong: %v", x.Data())
	}
}

func TestActivationOp(t *testing.T) {
	a := NewActivation("relu", 10, false)
	if a.Kind() != KindActivation || a.Name() != "relu" {
		t.Error("metadata wrong")
	}
	s := a.Stats(4)
	if s.FLOPs != 40 || s.ReadBytes != 160 || s.WriteBytes != 160 {
		t.Errorf("relu stats %+v", s)
	}
	sg := NewActivation("sig", 10, true)
	if sg.Stats(1).FLOPs != 40 {
		t.Errorf("sigmoid stats %+v", sg.Stats(1))
	}
	x := tensor.FromSlice([]float32{-2, 3}, 1, 2)
	reluInPlace(x)
	if x.Data()[0] != 0 || x.Data()[1] != 3 {
		t.Error("reluInPlace wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-width activation should panic")
			}
		}()
		NewActivation("bad", 0, false)
	}()
}

func TestConcat(t *testing.T) {
	c := NewConcat("cat", []int{2, 3})
	if c.OutDim() != 5 {
		t.Fatalf("OutDim = %d", c.OutDim())
	}
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float32{5, 6, 7, 8, 9, 10}, 2, 3)
	out := c.ForwardEx([]*tensor.Tensor{a, b}, nil)
	want := tensor.FromSlice([]float32{1, 2, 5, 6, 7, 3, 4, 8, 9, 10}, 2, 5)
	if !tensor.Equal(out, want, 0) {
		t.Errorf("Concat = %v", out.Data())
	}
	s := c.Stats(2)
	if s.FLOPs != 0 || s.ReadBytes != 40 || s.WriteBytes != 40 {
		t.Errorf("Concat stats %+v", s)
	}
	if c.Kind() != KindConcat {
		t.Error("kind wrong")
	}
}

func TestConcatPanics(t *testing.T) {
	cases := map[string]func(){
		"empty":       func() { NewConcat("c", nil) },
		"zero width":  func() { NewConcat("c", []int{2, 0}) },
		"wrong count": func() { NewConcat("c", []int{2}).ForwardEx(nil, nil) },
		"wrong shape": func() {
			NewConcat("c", []int{2, 2}).ForwardEx([]*tensor.Tensor{tensor.New(1, 2), tensor.New(1, 3)}, nil)
		},
		"batch mismatch": func() {
			NewConcat("c", []int{2, 2}).ForwardEx([]*tensor.Tensor{tensor.New(1, 2), tensor.New(2, 2)}, nil)
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDotInteraction(t *testing.T) {
	d := NewDotInteraction("int", 3, 2, false)
	if d.OutDim() != 3 { // 3 choose 2
		t.Fatalf("OutDim = %d", d.OutDim())
	}
	// Vectors per sample: v0=(1,0) v1=(0,1) v2=(2,2).
	x := tensor.FromSlice([]float32{1, 0, 0, 1, 2, 2}, 1, 6)
	out := d.ForwardEx(x, nil)
	// Pairs in order (1,0),(2,0),(2,1): v1·v0=0, v2·v0=2, v2·v1=2.
	want := tensor.FromSlice([]float32{0, 2, 2}, 1, 3)
	if !tensor.Equal(out, want, 1e-6) {
		t.Errorf("DotInteraction = %v, want %v", out.Data(), want.Data())
	}
}

func TestDotInteractionIncludeDense(t *testing.T) {
	d := NewDotInteraction("int", 2, 3, true)
	if d.OutDim() != 3+1 {
		t.Fatalf("OutDim = %d", d.OutDim())
	}
	x := tensor.FromSlice([]float32{1, 2, 3, 1, 1, 1}, 1, 6)
	out := d.ForwardEx(x, nil)
	want := tensor.FromSlice([]float32{1, 2, 3, 6}, 1, 4)
	if !tensor.Equal(out, want, 1e-6) {
		t.Errorf("DotInteraction dense = %v, want %v", out.Data(), want.Data())
	}
}

func TestDotInteractionStats(t *testing.T) {
	d := NewDotInteraction("int", 10, 32, false)
	s := d.Stats(4)
	wantFLOPs := 4.0 * 45 * 2 * 32
	if s.FLOPs != wantFLOPs {
		t.Errorf("FLOPs = %v, want %v", s.FLOPs, wantFLOPs)
	}
	if d.Kind() != KindBatchMM {
		t.Error("kind wrong")
	}
}

func TestDotInteractionPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("numVec < 2 should panic")
			}
		}()
		NewDotInteraction("bad", 1, 4, false)
	}()
	d := NewDotInteraction("int", 3, 2, false)
	defer func() {
		if recover() == nil {
			t.Error("bad shape should panic")
		}
	}()
	d.ForwardEx(tensor.New(1, 5), nil)
}

func TestConv2DIdentityKernel(t *testing.T) {
	rng := stats.NewRNG(1)
	c := NewConv2D("conv", 1, 1, 1, 1, 0, 4, 4, rng)
	c.W.Data()[0] = 1
	x := tensor.New(1, 1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	out := c.Forward(x)
	if !tensor.Equal(out, x, 1e-6) {
		t.Error("1x1 identity kernel should reproduce input")
	}
}

func TestConv2DKnownResult(t *testing.T) {
	rng := stats.NewRNG(1)
	c := NewConv2D("conv", 1, 1, 3, 1, 1, 3, 3, rng)
	// All-ones kernel: output = sum of 3x3 neighborhood with zero pad.
	for i := range c.W.Data() {
		c.W.Data()[i] = 1
	}
	x := tensor.New(1, 1, 3, 3)
	x.Fill(1)
	out := c.Forward(x)
	// Center pixel sees all 9 ones; corners see 4.
	if out.At(0, 0, 1, 1) != 9 {
		t.Errorf("center = %v, want 9", out.At(0, 0, 1, 1))
	}
	if out.At(0, 0, 0, 0) != 4 {
		t.Errorf("corner = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestConv2DGeometry(t *testing.T) {
	rng := stats.NewRNG(1)
	c := NewConv2D("conv", 3, 8, 3, 2, 1, 224, 224, rng)
	if c.OutH() != 112 || c.OutW() != 112 {
		t.Errorf("output geometry %dx%d, want 112x112", c.OutH(), c.OutW())
	}
	if c.Kind() != KindConv {
		t.Error("kind wrong")
	}
	s := c.Stats(1)
	if s.FLOPs <= 0 || s.ReadBytes <= 0 {
		t.Errorf("conv stats not populated: %+v", s)
	}
}

func TestConv2DPanics(t *testing.T) {
	rng := stats.NewRNG(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad geometry should panic")
			}
		}()
		NewConv2D("bad", 0, 1, 3, 1, 1, 8, 8, rng)
	}()
	c := NewConv2D("conv", 2, 2, 3, 1, 1, 8, 8, rng)
	defer func() {
		if recover() == nil {
			t.Error("bad input should panic")
		}
	}()
	c.Forward(tensor.New(1, 3, 8, 8))
}

func TestLSTMCellStep(t *testing.T) {
	rng := stats.NewRNG(7)
	cell := NewLSTMCell("lstm", 8, 16, rng)
	batch := 3
	x := tensor.New(batch, 8)
	h := tensor.New(batch, 16)
	cst := tensor.New(batch, 16)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32() - 0.5
	}
	hn, cn := cell.Step(x, h, cst)
	if hn.Dim(0) != batch || hn.Dim(1) != 16 || cn.Dim(1) != 16 {
		t.Fatalf("LSTM output shapes h=%v c=%v", hn.Shape(), cn.Shape())
	}
	// h is bounded by tanh ∘ sigmoid: |h| < 1.
	for _, v := range hn.Data() {
		if v <= -1 || v >= 1 {
			t.Fatalf("LSTM hidden out of (-1,1): %v", v)
		}
	}
	if cell.Kind() != KindRecurrent {
		t.Error("kind wrong")
	}
	if cell.ParamCount() != 8*64+16*64+64 {
		t.Errorf("ParamCount = %d", cell.ParamCount())
	}
}

func TestLSTMZeroInputZeroStateDeterministic(t *testing.T) {
	rng := stats.NewRNG(9)
	cell := NewLSTMCell("lstm", 4, 4, rng)
	x := tensor.New(1, 4)
	h := tensor.New(1, 4)
	c := tensor.New(1, 4)
	h1, c1 := cell.Step(x, h, c)
	h2, c2 := cell.Step(x, h, c)
	if !tensor.Equal(h1, h2, 0) || !tensor.Equal(c1, c2, 0) {
		t.Error("LSTM step not deterministic")
	}
}

func TestLSTMPanics(t *testing.T) {
	rng := stats.NewRNG(9)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad dims should panic")
			}
		}()
		NewLSTMCell("bad", 0, 4, rng)
	}()
	cell := NewLSTMCell("lstm", 4, 4, rng)
	defer func() {
		if recover() == nil {
			t.Error("bad shapes should panic")
		}
	}()
	cell.Step(tensor.New(1, 5), tensor.New(1, 4), tensor.New(1, 4))
}

// TestOpIntensityOrdering reproduces the ordering of Figure 5 (left):
// SLS << RNN < FC << CNN in FLOPs per byte.
func TestOpIntensityOrdering(t *testing.T) {
	rng := stats.NewRNG(10)
	sls := NewSLSOp(NewEmbeddingTable("emb", 100000, 32, rng), 80)
	fc := NewFC("fc", 2048, 1000, rng) // ResNet-50 classifier-like
	conv := NewConv2D("conv", 64, 64, 3, 1, 1, 56, 56, rng)
	lstm := NewLSTMCell("lstm", 1024, 1024, rng)

	batch := 16
	iSLS := sls.Stats(batch).Intensity()
	iFC := fc.Stats(batch).Intensity()
	iConv := conv.Stats(batch).Intensity()
	// RNN decoding is sequential, so recurrent layers run at small
	// effective batch — that is why the paper measures them at 5.5
	// FLOPs/byte, below FC's 18.
	iLSTM := lstm.Stats(4).Intensity()

	if !(iSLS < iLSTM && iLSTM < iFC && iFC < iConv) {
		t.Errorf("intensity ordering violated: SLS=%.3f RNN=%.3f FC=%.3f CNN=%.3f",
			iSLS, iLSTM, iFC, iConv)
	}
	if iSLS > 0.5 {
		t.Errorf("SLS intensity = %v, paper reports ~0.25", iSLS)
	}
}

var _ = []Op{
	(*FC)(nil), (*MLP)(nil), (*SLSOp)(nil), (*Concat)(nil),
	(*DotInteraction)(nil), (*Activation)(nil), (*Conv2D)(nil), (*LSTMCell)(nil),
}
