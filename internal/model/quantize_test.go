package model

import (
	"testing"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// TestQuantizeTablesEquivalence: an int8 model's CTR output must stay
// within the accumulated quantization error of its fp32 twin. Only the
// SLS gathers differ, so the pre-sigmoid divergence is bounded by the
// per-table Lookups × MaxAbsError pushed through the (1-Lipschitz
// sigmoid after linear) top stack — rather than derive that bound, the
// test checks the output against a quantization-scale tolerance far
// above fp32 noise and far below model scale.
func TestQuantizeTablesEquivalence(t *testing.T) {
	cfg := RMC1Small().Scaled(100)
	fp, err := Build(cfg, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Build(cfg, stats.NewRNG(7)) // same seed → identical weights
	if err != nil {
		t.Fatal(err)
	}
	if q.Quantized() {
		t.Fatal("Quantized() true before QuantizeTables")
	}
	q.QuantizeTables()
	if !q.Quantized() {
		t.Fatal("Quantized() false after QuantizeTables")
	}

	req := NewRandomRequest(cfg, 8, stats.NewRNG(8))
	want := fp.ForwardEx(req, nil, 1)
	got := q.ForwardEx(req, nil, 1)
	const tol = 1e-2 // quantization scale; fp32 table entries are O(1/Cols)
	if !tensor.Equal(want, got, tol) {
		t.Fatalf("int8 CTR diverges from fp32 beyond %g", tol)
	}
	// And the arena-backed pass must agree with the arena-free one bit
	// for bit.
	arena := tensor.NewArena()
	hot := q.ForwardEx(req, arena, 1)
	if !tensor.Equal(hot, got, 0) {
		t.Fatal("quantized arena pass differs from the arena-free one")
	}
}

// TestQuantizeMLPsEquivalence: with int8-compute MLPs, the model's
// CTR must stay near the fp32 twin. Per-layer error is analytically
// bounded (nn's TestFCInt8AccuracyBound); post-sigmoid it lands well
// inside a quantization-scale tolerance.
func TestQuantizeMLPsEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		RMC1Small().Scaled(100), // dense bottom + top
		MLPerfNCF().Scaled(10),  // no dense path: Bottom nil
	} {
		fp, err := Build(cfg, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		q, err := Build(cfg, stats.NewRNG(7)) // same seed → identical weights
		if err != nil {
			t.Fatal(err)
		}
		if q.Int8MLPs() {
			t.Fatalf("%s: Int8MLPs() true before QuantizeMLPs", cfg.Name)
		}
		q.QuantizeMLPs()
		if !q.Int8MLPs() {
			t.Fatalf("%s: Int8MLPs() false after QuantizeMLPs", cfg.Name)
		}

		req := NewRandomRequest(cfg, 8, stats.NewRNG(8))
		want := fp.ForwardEx(req, nil, 1)
		got := q.ForwardEx(req, tensor.NewArena(), 1)
		const tol = 2e-2
		wd, gd := want.Data(), got.Data()
		for i := range wd {
			d := gd[i] - wd[i]
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("%s: int8-MLP CTR[%d] = %g, fp32 %g (|Δ|=%g > %g)", cfg.Name, i, gd[i], wd[i], d, tol)
			}
		}
	}
}
