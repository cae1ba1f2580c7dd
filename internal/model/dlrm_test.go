package model

import (
	"testing"
	"testing/quick"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func buildScaled(t *testing.T, cfg Config, factor int) *Model {
	t.Helper()
	m, err := Build(cfg.Scaled(factor), stats.NewRNG(42))
	if err != nil {
		t.Fatalf("Build(%s): %v", cfg.Name, err)
	}
	return m
}

func TestBuildRejectsInvalid(t *testing.T) {
	if _, err := Build(Config{Name: "bad"}, stats.NewRNG(1)); err == nil {
		t.Error("Build should reject invalid configs")
	}
}

func TestBuildRejectsHugeModels(t *testing.T) {
	if _, err := Build(RMC2Small(), stats.NewRNG(1)); err == nil {
		t.Error("Build should refuse multi-GB embedding allocation")
	}
}

func TestForwardShapesAndRange(t *testing.T) {
	for _, cfg := range Defaults() {
		m := buildScaled(t, cfg, 1000)
		rng := stats.NewRNG(7)
		for _, batch := range []int{1, 4, 33} {
			req := NewRandomRequest(m.Config, batch, rng)
			out := m.ForwardEx(req, nil, 1)
			if out.Dim(0) != batch || out.Dim(1) != 1 {
				t.Fatalf("%s: output shape %v, want [%d 1]", cfg.Name, out.Shape(), batch)
			}
			for _, v := range out.Data() {
				if v <= 0 || v >= 1 {
					t.Fatalf("%s: CTR %v outside (0,1)", cfg.Name, v)
				}
			}
		}
	}
}

func TestForwardNCF(t *testing.T) {
	m, err := Build(MLPerfNCF(), stats.NewRNG(5))
	if err != nil {
		t.Fatalf("Build NCF: %v", err)
	}
	req := NewRandomRequest(m.Config, 8, stats.NewRNG(9))
	if req.Dense != nil {
		t.Fatal("NCF request should have no dense features")
	}
	ctr := m.CTR(req)
	if len(ctr) != 8 {
		t.Fatalf("CTR length %d", len(ctr))
	}
}

func TestForwardDeterministic(t *testing.T) {
	m := buildScaled(t, RMC1Small(), 100)
	req := NewRandomRequest(m.Config, 16, stats.NewRNG(3))
	a := m.CTR(req)
	b := m.CTR(req)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward not deterministic for identical input")
		}
	}
}

// Property: batching is semantically transparent — the CTR of a sample
// is identical whether it is ranked alone or inside a batch.
func TestBatchingInvariance(t *testing.T) {
	m := buildScaled(t, RMC1Small(), 100)
	cfg := m.Config
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		batch := 2 + rng.Intn(8)
		req := NewRandomRequest(cfg, batch, rng)
		full := m.CTR(req)
		// Extract sample 0 as a standalone request.
		single := Request{Batch: 1}
		if req.Dense != nil {
			row := req.Dense.Row(0)
			d := make([]float32, len(row))
			copy(d, row)
			single.Dense = tensor.FromSlice(d, 1, cfg.DenseIn)
		}
		for ti, tab := range cfg.Tables {
			single.SparseIDs = append(single.SparseIDs, req.SparseIDs[ti][:tab.Lookups])
		}
		one := m.CTR(single)
		diff := float64(full[0]) - float64(one[0])
		return diff < 1e-5 && diff > -1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestForwardPanicsOnWrongSparseInputs(t *testing.T) {
	m := buildScaled(t, RMC1Small(), 100)
	req := NewRandomRequest(m.Config, 2, stats.NewRNG(1))
	req.SparseIDs = req.SparseIDs[:1]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing sparse inputs")
		}
	}()
	m.ForwardEx(req, nil, 1)
}

func TestForwardPanicsOnMissingDense(t *testing.T) {
	m := buildScaled(t, RMC1Small(), 100)
	req := NewRandomRequest(m.Config, 2, stats.NewRNG(1))
	req.Dense = nil
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing dense input")
		}
	}()
	m.ForwardEx(req, nil, 1)
}
