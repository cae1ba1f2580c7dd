package train

import (
	"testing"

	"recsys/internal/model"
	"recsys/internal/stats"
)

func TestSGDUpdate(t *testing.T) {
	o := NewSGD(0.5)
	p := []float32{1, 2}
	o.UpdateDense("x", p, []float32{2, -2})
	if p[0] != 0 || p[1] != 3 {
		t.Errorf("SGD update = %v", p)
	}
	row := []float32{1}
	o.UpdateSparseRow("t", 0, row, []float32{1})
	if row[0] != 0.5 {
		t.Errorf("SGD sparse update = %v", row)
	}
}

func TestOptimizerConstructorsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSGD(0) },
		func() { NewAdaGrad(-1) },
		func() { NewTrainerWithOptimizer(nil, NewSGD(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	m := buildTiny(t, model.Cat, 1)
	defer func() {
		if recover() == nil {
			t.Error("nil optimizer should panic")
		}
	}()
	NewTrainerWithOptimizer(m, nil)
}

func TestAdaGradStepShrinks(t *testing.T) {
	o := NewAdaGrad(1.0)
	p := []float32{0}
	// Repeated unit gradients: steps shrink as 1/sqrt(k).
	o.UpdateDense("x", p, []float32{1})
	step1 := -p[0]
	prev := p[0]
	o.UpdateDense("x", p, []float32{1})
	step2 := prev - p[0]
	if step2 >= step1 {
		t.Errorf("AdaGrad steps should shrink: %v then %v", step1, step2)
	}
	// First step ≈ lr (accumulator = g²).
	if step1 < 0.99 || step1 > 1.01 {
		t.Errorf("first AdaGrad step = %v, want ~1", step1)
	}
}

func TestAdaGradSparseStatePerRow(t *testing.T) {
	o := NewAdaGrad(0.1)
	hot := []float32{0}
	cold := []float32{0}
	for i := 0; i < 100; i++ {
		o.UpdateSparseRow("t", 1, hot, []float32{1})
	}
	o.UpdateSparseRow("t", 2, cold, []float32{1})
	// The cold row's single step must be far larger than the hot row's
	// 100th step (its accumulator is fresh).
	hotLast := 0.1 / 10.0 // lr / sqrt(100)
	if -cold[0] < float32(hotLast)*5 {
		t.Errorf("cold-row step %v should dwarf hot-row late step %v", -cold[0], hotLast)
	}
	if n := len(o.sparse["t"]); n != 2 {
		t.Errorf("sparse state rows = %d, want 2", n)
	}
}

func TestAdaGradDenseSizeMismatchPanics(t *testing.T) {
	o := NewAdaGrad(0.1)
	o.UpdateDense("x", []float32{1, 2}, []float32{0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.UpdateDense("x", []float32{1}, []float32{0})
}

// TestAdaGradTrainsAtLeastAsWellAsSGD: on the skewed-embedding task,
// AdaGrad's per-row adaptive steps should match or beat plain SGD at
// the same nominal rate.
func TestAdaGradTrainsAtLeastAsWellAsSGD(t *testing.T) {
	run := func(opt Optimizer) float32 {
		m := buildTiny(t, model.Dot, 21)
		tr := NewTrainerWithOptimizer(m, opt)
		req := model.NewRandomRequest(m.Config, 32, stats.NewRNG(22))
		labels := make([]float32, 32)
		for i := range labels {
			labels[i] = float32(i % 2)
		}
		var last float32
		for i := 0; i < 150; i++ {
			last = tr.Step(req, labels)
		}
		return last
	}
	sgd := run(NewSGD(0.03))
	ada := run(NewAdaGrad(0.03))
	if ada > sgd*1.5 {
		t.Errorf("AdaGrad final loss %.4f much worse than SGD %.4f", ada, sgd)
	}
	if ada > 0.5 {
		t.Errorf("AdaGrad failed to fit the batch: loss %.4f", ada)
	}
}
