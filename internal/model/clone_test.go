package model

import (
	"math"
	"testing"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCloneBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		int8Tab bool
	}{{"fp32", false}, {"int8", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RMC1Small().Scaled(1000)
			m, err := Build(cfg, stats.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			if tc.int8Tab {
				m.QuantizeTables()
			}
			c, err := m.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if c.Quantized() != m.Quantized() {
				t.Fatalf("clone quantization state %v != source %v", c.Quantized(), m.Quantized())
			}
			// Same scores on both the reference and the hot path.
			rng := stats.NewRNG(7)
			a := tensor.NewArena()
			for pass := 0; pass < 3; pass++ {
				req := NewRandomRequest(cfg, 4, rng)
				if !bitsEqual(m.CTR(req), c.CTR(req)) {
					t.Fatalf("pass %d: reference-path scores differ", pass)
				}
				want := arenaCTR(m, req, a, 1)
				got := arenaCTR(c, req, a, 1)
				if !bitsEqual(want, got) {
					t.Fatalf("pass %d: hot-path scores differ", pass)
				}
			}
		})
	}
}

// TestCloneIndependence: mutating the clone's weights must not leak
// into the source — the property that lets the updater train a twin
// while the original keeps serving.
func TestCloneIndependence(t *testing.T) {
	cfg := RMC1Small().Scaled(1000)
	m, err := Build(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 4, stats.NewRNG(5))
	before := m.CTR(req)
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range c.paramBlocks() {
		for i := range block.f32 {
			block.f32[i] += 0.25
		}
	}
	c.refreshDerived()
	if !bitsEqual(m.CTR(req), before) {
		t.Fatal("mutating the clone changed the source model's scores")
	}
	if bitsEqual(c.CTR(req), before) {
		t.Fatal("clone scores unchanged after weight mutation (copy is shallow?)")
	}
}

// TestCopyWeightsFrom: restoring weights from a snapshot must bring the
// serving-path scores back bit-identically — the rollback primitive.
func TestCopyWeightsFrom(t *testing.T) {
	cfg := RMC1Small().Scaled(1000)
	m, err := Build(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	m.QuantizeTables()
	snap, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	req := NewRandomRequest(cfg, 4, stats.NewRNG(5))
	a := tensor.NewArena()
	want := arenaCTR(m, req, a, 1)

	// Corrupt the live model, then restore from the snapshot.
	for _, block := range m.paramBlocks() {
		for i := range block.f32 {
			block.f32[i] *= 1.5
		}
	}
	m.refreshDerived()
	if bitsEqual(arenaCTR(m, req, a, 1), want) {
		t.Fatal("corruption did not change scores")
	}
	if err := m.CopyWeightsFrom(snap); err != nil {
		t.Fatal(err)
	}
	got := arenaCTR(m, req, a, 1)
	if !bitsEqual(got, want) {
		t.Fatal("scores not restored bit-identically after CopyWeightsFrom")
	}

	// Shape mismatch is a typed error, not a partial copy.
	other, err := Build(RMC2Small().Scaled(1000), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CopyWeightsFrom(other); err == nil {
		t.Fatal("CopyWeightsFrom across configs succeeded")
	}
}
