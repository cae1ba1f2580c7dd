package recsys_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"recsys"
	"recsys/internal/engine"
)

// TestEndToEndLifecycle exercises the full production flow through the
// public API: define a model, train it against synthetic click data,
// checkpoint it, reload it, serve it over HTTP, and rank a request —
// verifying the served scores match direct inference on the trained
// weights.
func TestEndToEndLifecycle(t *testing.T) {
	cfg := recsys.Config{
		Name:        "e2e",
		Class:       recsys.Custom,
		DenseIn:     13,
		BottomMLP:   []int{32, 16},
		TopMLP:      []int{16, 1},
		Tables:      recsys.UniformTables(3, 2000, 16, 4),
		Interaction: recsys.Dot,
	}

	// Train.
	teacher, err := recsys.NewTeacher(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := recsys.Build(cfg, recsys.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	trainer := recsys.NewTrainerWithOptimizer(m, recsys.NewAdaGrad(0.05))
	for i := 0; i < 300; i++ {
		req, labels := teacher.Sample(32)
		trainer.Step(req, labels)
	}
	if auc := teacher.Evaluate(m, 2000); auc < 0.6 {
		t.Fatalf("training failed: AUC %.3f", auc)
	}

	// Checkpoint → reload.
	path := filepath.Join(t.TempDir(), "e2e.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	served, err := recsys.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Serve over HTTP.
	eng, err := recsys.NewEngine(recsys.ServeOptions{
		Workers: 2, QueueDepth: 16, MaxBatch: 16, MaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("e2e", served, recsys.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	// Build a request both ways: direct and via JSON.
	req := recsys.NewRandomRequest(cfg, 2, recsys.NewRNG(31))
	want, err := eng.Rank(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}

	var body engine.RankRequest
	for b := 0; b < 2; b++ {
		row := make([]float32, cfg.DenseIn)
		copy(row, req.Dense.Row(b))
		body.Dense = append(body.Dense, row)
	}
	for ti := range cfg.Tables {
		body.SparseIDs = append(body.SparseIDs, req.SparseIDs[ti])
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/rank", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP rank status %d", resp.StatusCode)
	}
	var out engine.RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.CTR) != 2 {
		t.Fatalf("CTR length %d", len(out.CTR))
	}
	for i := range want {
		if d := float64(out.CTR[i] - want[i]); d > 1e-6 || d < -1e-6 {
			t.Errorf("HTTP CTR[%d] = %v, direct = %v", i, out.CTR[i], want[i])
		}
	}
}

// TestEndToEndCriteoTraining runs the Criteo-format path through the
// public API: synthesize log lines, parse, encode, train.
func TestEndToEndCriteoTraining(t *testing.T) {
	cfg := recsys.Config{
		Name:        "criteo-e2e",
		Class:       recsys.Custom,
		DenseIn:     13,
		BottomMLP:   []int{32, 16},
		TopMLP:      []int{16, 1},
		Tables:      recsys.UniformTables(4, 3000, 8, 4),
		Interaction: recsys.Cat,
	}
	enc, err := recsys.NewCriteoEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []recsys.CriteoRecord
	for _, line := range recsys.SyntheticCriteoLines(64, 3) {
		rec, err := recsys.ParseCriteoLine(line)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	req, labels, err := enc.Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := recsys.Build(cfg, recsys.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	trainer := recsys.NewTrainer(m, 0.05)
	first := trainer.Step(req, labels)
	var last float32
	for i := 0; i < 100; i++ {
		last = trainer.Step(req, labels)
	}
	if last >= first {
		t.Errorf("Criteo training loss did not fall: %.4f -> %.4f", first, last)
	}
}
