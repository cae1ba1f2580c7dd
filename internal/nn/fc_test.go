package nn

import (
	"testing"
	"testing/quick"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func TestFCForwardExact(t *testing.T) {
	rng := stats.NewRNG(1)
	fc := NewFC("fc", 2, 3, rng)
	// Overwrite weights with known values.
	copy(fc.W.Data(), []float32{1, 2, 3, 4, 5, 6}) // [2,3]
	copy(fc.B, []float32{0.5, -0.5, 1})
	x := tensor.FromSlice([]float32{1, 1, 2, 0}, 2, 2)
	y := fc.ForwardEx(x, nil, 1, false)
	want := tensor.FromSlice([]float32{5.5, 6.5, 10, 2.5, 3.5, 7}, 2, 3)
	if !tensor.Equal(y, want, 1e-6) {
		t.Errorf("FC forward = %v, want %v", y.Data(), want.Data())
	}
}

func TestFCShapePanic(t *testing.T) {
	rng := stats.NewRNG(1)
	fc := NewFC("fc", 4, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched input did not panic")
		}
	}()
	fc.ForwardEx(tensor.New(1, 3), nil, 1, false)
}

func TestFCStats(t *testing.T) {
	rng := stats.NewRNG(1)
	fc := NewFC("fc", 100, 50, rng)
	s := fc.Stats(8)
	wantFLOPs := 2.0*8*100*50 + 8*50
	if s.FLOPs != wantFLOPs {
		t.Errorf("FLOPs = %v, want %v", s.FLOPs, wantFLOPs)
	}
	if s.ParamBytes != 4*(100*50+50) {
		t.Errorf("ParamBytes = %v", s.ParamBytes)
	}
	if s.Irregular {
		t.Error("FC should not be irregular")
	}
}

func TestFCXavierScale(t *testing.T) {
	rng := stats.NewRNG(2)
	fc := NewFC("fc", 128, 128, rng)
	var maxAbs float32
	for _, v := range fc.W.Data() {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	bound := float32(0.2165) // sqrt(6/256)
	if maxAbs > bound*1.001 || maxAbs < bound*0.5 {
		t.Errorf("Xavier init max |w| = %v, want near %v", maxAbs, bound)
	}
}

func TestMLPDims(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewMLP("bot", []int{13, 512, 256, 64}, true, rng)
	if out := m.Layers[len(m.Layers)-1].Out; m.InDim() != 13 || out != 64 || len(m.Layers) != 3 {
		t.Fatalf("MLP dims in=%d out=%d layers=%d", m.InDim(), out, len(m.Layers))
	}
	x := tensor.New(4, 13)
	for i := range x.Data() {
		x.Data()[i] = float32(i%7) - 3
	}
	y := m.ForwardEx(x, nil, 1)
	if y.Dim(0) != 4 || y.Dim(1) != 64 {
		t.Fatalf("MLP output shape %v", y.Shape())
	}
	// FinalReLU: outputs must be non-negative.
	for _, v := range y.Data() {
		if v < 0 {
			t.Fatal("FinalReLU violated")
		}
	}
}

func TestMLPNoFinalReLUCanBeNegative(t *testing.T) {
	rng := stats.NewRNG(4)
	m := NewMLP("top", []int{32, 16, 1}, false, rng)
	neg := false
	for trial := 0; trial < 50 && !neg; trial++ {
		x := tensor.New(8, 32)
		for i := range x.Data() {
			x.Data()[i] = rng.Float32()*4 - 2
		}
		for _, v := range m.ForwardEx(x, nil, 1).Data() {
			if v < 0 {
				neg = true
			}
		}
	}
	if !neg {
		t.Error("no negative outputs in 50 trials; final ReLU may be wrongly applied")
	}
}

func TestMLPStatsSumLayers(t *testing.T) {
	rng := stats.NewRNG(5)
	m := NewMLP("m", []int{10, 20, 5}, false, rng)
	s := m.Stats(3)
	var want OpStats
	for _, fc := range m.Layers {
		want.Add(fc.Stats(3))
	}
	if s != want {
		t.Errorf("MLP stats %+v, want %+v", s, want)
	}
	if s.ParamBytes != 4*(10*20+20+20*5+5) {
		t.Errorf("ParamBytes = %v", s.ParamBytes)
	}
}

func TestMLPPanicsOnShortDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP("bad", []int{5}, false, stats.NewRNG(1))
}

// Property: FC is linear — FC(a·x) - FC(0) == a·(FC(x) - FC(0)).
func TestFCLinearity(t *testing.T) {
	rng := stats.NewRNG(6)
	fc := NewFC("fc", 16, 8, rng)
	zero := fc.ForwardEx(tensor.New(1, 16), nil, 1, false)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		x := tensor.New(1, 16)
		for i := range x.Data() {
			x.Data()[i] = r.Float32()*2 - 1
		}
		alpha := float32(2.0)
		x2 := x.Clone()
		for i := range x2.Data() {
			x2.Data()[i] *= alpha
		}
		y1 := fc.ForwardEx(x, nil, 1, false)
		y2 := fc.ForwardEx(x2, nil, 1, false)
		for i := range y1.Data() {
			lhs := y2.Data()[i] - zero.Data()[i]
			rhs := alpha * (y1.Data()[i] - zero.Data()[i])
			if d := lhs - rhs; d > 1e-4 || d < -1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
