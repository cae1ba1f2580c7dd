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
