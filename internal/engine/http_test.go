package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// httpServer serves a default-model engine over a test HTTP server and
// returns the model's config with the server.
func httpServer(t *testing.T) (*Engine, model.Config, *httptest.Server) {
	t.Helper()
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 8})
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(ts.Close)
	return e, m.Config, ts
}

func rankBody(t *testing.T, cfg model.Config, batch int) []byte {
	t.Helper()
	return marshalRequest(t, model.NewRandomRequest(cfg, batch, stats.NewRNG(3)))
}

func TestHTTPRank(t *testing.T) {
	_, cfg, ts := httpServer(t)
	body := rankBody(t, cfg, 3)
	resp, err := http.Post(ts.URL+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.CTR) != 3 {
		t.Fatalf("CTR length %d", len(out.CTR))
	}
	for _, p := range out.CTR {
		if p <= 0 || p >= 1 {
			t.Fatalf("CTR %v out of (0,1)", p)
		}
	}
}

func TestHTTPRankRejectsBadInput(t *testing.T) {
	_, cfg, ts := httpServer(t)
	post := func(data []byte) int {
		resp, err := http.Post(ts.URL+"/rank", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]byte("{not json")); code != http.StatusBadRequest {
		t.Errorf("garbage JSON: status %d", code)
	}
	if code := post([]byte(`{"unknown_field": 1}`)); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	if code := post([]byte(`{"dense": [], "sparse_ids": []}`)); code != http.StatusBadRequest {
		t.Errorf("empty request: status %d", code)
	}
	// Out-of-range embedding ID.
	var req RankRequest
	if err := json.Unmarshal(rankBody(t, cfg, 1), &req); err != nil {
		t.Fatal(err)
	}
	req.SparseIDs[0][0] = cfg.Tables[0].Rows + 5
	data, _ := json.Marshal(req)
	if code := post(data); code != http.StatusBadRequest {
		t.Errorf("out-of-range ID: status %d", code)
	}
	// Wrong dense width.
	if err := json.Unmarshal(rankBody(t, cfg, 1), &req); err != nil {
		t.Fatal(err)
	}
	req.Dense[0] = req.Dense[0][:len(req.Dense[0])-1]
	data, _ = json.Marshal(req)
	if code := post(data); code != http.StatusBadRequest {
		t.Errorf("bad dense width: status %d", code)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	_, cfg, ts := httpServer(t)
	// Rank once so counters move.
	body := rankBody(t, cfg, 2)
	resp, err := http.Post(ts.URL+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %d", err, hr.StatusCode)
	}
	hr.Body.Close()

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["requests"].(float64) < 1 || st["samples"].(float64) < 2 {
		t.Errorf("stats not counting: %v", st)
	}
}

// TestHTTPMultiModel exercises the named-model endpoints: POST
// /rank/{model}, GET /stats/{model}, GET /models, and 404s for
// unknown names.
func TestHTTPMultiModel(t *testing.T) {
	e, _, ts := httpServer(t)
	side, err := model.Build(model.RMC3Small().Scaled(500), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("ranker", side, ModelOptions{}); err != nil {
		t.Fatal(err)
	}

	// Named rank against the co-located model (its shape differs from
	// the default model's, so routing errors would surface as 400s).
	body := rankBody(t, side.Config, 2)
	resp, err := http.Post(ts.URL+"/rank/ranker", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /rank/ranker: status %d", resp.StatusCode)
	}
	var out RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.CTR) != 2 {
		t.Fatalf("CTR length %d", len(out.CTR))
	}

	// Per-model stats reflect only that model's traffic.
	sr, err := http.Get(ts.URL + "/stats/ranker")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["requests"].(float64) != 1 || st["samples"].(float64) != 2 {
		t.Errorf("per-model stats: %v", st)
	}

	// Aggregate stats carry the per-model breakdown.
	ar, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Body.Close()
	var agg map[string]any
	if err := json.NewDecoder(ar.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	models, ok := agg["models"].(map[string]any)
	if !ok {
		t.Fatal("aggregate stats missing per-model breakdown")
	}
	if _, ok := models[DefaultModelName]; !ok {
		t.Errorf("breakdown missing default model: %v", models)
	}
	if _, ok := models["ranker"]; !ok {
		t.Errorf("breakdown missing ranker: %v", models)
	}

	// Registry listing.
	mr, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var ml struct {
		Models  []string `json:"models"`
		Default string   `json:"default"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	if len(ml.Models) != 2 || ml.Default != DefaultModelName {
		t.Errorf("GET /models = %+v", ml)
	}

	// Unknown names 404.
	rr, err := http.Post(ts.URL+"/rank/ghost", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusNotFound {
		t.Errorf("POST /rank/ghost: status %d", rr.StatusCode)
	}
	gr, err := http.Get(ts.URL + "/stats/ghost")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats/ghost: status %d", gr.StatusCode)
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, _, ts := httpServer(t)
	resp, err := http.Get(ts.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /rank should not be routed")
	}
}
