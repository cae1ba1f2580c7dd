package rank

import (
	"errors"
	"testing"

	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func TestTopK(t *testing.T) {
	scores := []float32{0.3, 0.9, 0.1, 0.9, 0.5}
	top := TopK(scores, 3)
	// Ties (0.9 at 1 and 3) break by lower index.
	if top[0].Index != 1 || top[1].Index != 3 || top[2].Index != 4 {
		t.Errorf("TopK = %+v", top)
	}
	if top[0].Score != 0.9 {
		t.Errorf("score %v", top[0].Score)
	}
}

func TestTopKPanics(t *testing.T) {
	for _, k := range []int{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			TopK([]float32{1, 2, 3}, k)
		}()
	}
}

// subsetRequest extracts the samples at indices from req, preserving
// feature alignment: the ranking stage's input when both stages share
// one model shape.
func subsetRequest(cfg model.Config, req model.Request, indices []int) model.Request {
	out := model.Request{Batch: len(indices)}
	if cfg.DenseIn > 0 {
		out.Dense = tensor.New(len(indices), cfg.DenseIn)
		for row, idx := range indices {
			copy(out.Dense.Row(row), req.Dense.Row(idx))
		}
	}
	for ti, tab := range cfg.Tables {
		ids := make([]int, 0, len(indices)*tab.Lookups)
		for _, idx := range indices {
			ids = append(ids, req.SparseIDs[ti][idx*tab.Lookups:(idx+1)*tab.Lookups]...)
		}
		out.SparseIDs = append(out.SparseIDs, ids)
	}
	return out
}

func TestSubsetRequest(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	rng := stats.NewRNG(1)
	req := model.NewRandomRequest(cfg, 10, rng)
	sub := subsetRequest(cfg, req, []int{7, 2})
	if sub.Batch != 2 {
		t.Fatalf("batch %d", sub.Batch)
	}
	for c := 0; c < cfg.DenseIn; c++ {
		if sub.Dense.At(0, c) != req.Dense.At(7, c) || sub.Dense.At(1, c) != req.Dense.At(2, c) {
			t.Fatal("dense rows not aligned")
		}
	}
	for ti, tab := range cfg.Tables {
		for l := 0; l < tab.Lookups; l++ {
			if sub.SparseIDs[ti][l] != req.SparseIDs[ti][7*tab.Lookups+l] {
				t.Fatal("sparse IDs not aligned")
			}
		}
	}
	// Subset predictions equal the originals (batching invariance).
	m, err := model.Build(cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	full := m.CTR(req)
	part := m.CTR(sub)
	if d := float64(part[0] - full[7]); d > 1e-6 || d < -1e-6 {
		t.Errorf("subset prediction drifted: %v vs %v", part[0], full[7])
	}
}

func buildPipeline(t *testing.T) (*Pipeline, model.Config) {
	t.Helper()
	cfg := model.RMC1Small().Scaled(100)
	filter, err := model.Build(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	ranker, err := model.Build(cfg, stats.NewRNG(4)) // same shape, different weights
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{Filter: filter, Ranker: ranker, FilterTo: 20, ServeTo: 5}, cfg
}

func TestPipelineRun(t *testing.T) {
	p, cfg := buildPipeline(t)
	req := model.NewRandomRequest(cfg, 200, stats.NewRNG(5))
	results, err := p.Run(req, func(survivors []int) (model.Request, error) {
		return subsetRequest(cfg, req, survivors), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	seen := map[int]bool{}
	for i, r := range results {
		if r.Index < 0 || r.Index >= 200 {
			t.Fatalf("index %d out of candidate range", r.Index)
		}
		if seen[r.Index] {
			t.Fatal("duplicate result")
		}
		seen[r.Index] = true
		if i > 0 && results[i-1].Score < r.Score {
			t.Fatal("results not sorted by score")
		}
	}
	// The served results must all be filtering survivors: their final
	// ranker scores must equal direct ranker evaluation.
	direct := p.Ranker.CTR(subsetRequest(cfg, req, []int{results[0].Index}))
	if d := float64(direct[0] - results[0].Score); d > 1e-6 || d < -1e-6 {
		t.Errorf("top score %v inconsistent with direct ranking %v", results[0].Score, direct[0])
	}
}

func TestPipelineErrors(t *testing.T) {
	p, cfg := buildPipeline(t)
	small := model.NewRandomRequest(cfg, 5, stats.NewRNG(6))
	if _, err := p.Run(small, nil); err == nil {
		t.Error("too few candidates should error")
	}
	req := model.NewRandomRequest(cfg, 100, stats.NewRNG(7))
	if _, err := p.Run(req, func([]int) (model.Request, error) {
		return model.Request{}, errors.New("boom")
	}); err == nil {
		t.Error("callback error should propagate")
	}
	if _, err := p.Run(req, func(s []int) (model.Request, error) {
		r := subsetRequest(cfg, req, s[:len(s)-1]) // wrong batch
		return r, nil
	}); err == nil {
		t.Error("wrong ranking batch should error")
	}
	bad := &Pipeline{Filter: p.Filter, Ranker: p.Ranker, FilterTo: 2, ServeTo: 5}
	if err := bad.Validate(); err == nil {
		t.Error("FilterTo < ServeTo should be invalid")
	}
	if err := (&Pipeline{}).Validate(); err == nil {
		t.Error("missing stages should be invalid")
	}
}
