package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"recsys/internal/model"
	"recsys/internal/shard"
	"recsys/internal/stats"
)

// TestRankStatus pins the error→HTTP mapping documented in README.md:
// each family in the engine's taxonomy lands on its own status code,
// wrapped or not.
func TestRankStatus(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{ErrBadRequest, http.StatusBadRequest},
		{fmt.Errorf("%w: table 0 ID 9 out of range", ErrBadRequest), http.StatusBadRequest},
		{context.DeadlineExceeded, http.StatusRequestTimeout},
		{context.Canceled, http.StatusRequestTimeout},
		{ErrModelNotFound, http.StatusNotFound},
		{fmt.Errorf("%w: %q", ErrModelNotFound, "ghost"), http.StatusNotFound},
		{ErrClosed, http.StatusServiceUnavailable},
		{shard.ErrUnavailable, http.StatusServiceUnavailable},
		// The executor wraps a dead-tier panic as ErrInference while
		// keeping shard.ErrUnavailable in the chain; the 503 must win
		// over ErrInference's 500.
		{fmt.Errorf("%w: %w", ErrInference, fmt.Errorf("%w: dial tcp: connection refused", shard.ErrUnavailable)), http.StatusServiceUnavailable},
		{ErrInference, http.StatusInternalServerError},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := rankStatus(tc.err); got != tc.code {
			t.Errorf("rankStatus(%v) = %d, want %d", tc.err, got, tc.code)
		}
	}
}

// TestHTTPStatsExposeShedsAndRejected: the new lifecycle counters are
// visible through GET /stats/{model} so operators can watch shed and
// rejection rates per model.
func TestHTTPStatsExposeShedsAndRejected(t *testing.T) {
	eng, cfg, ts := httpServer(t)

	// One admission rejection (malformed request)...
	if _, err := eng.Rank(context.Background(), "", model.Request{Batch: 1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed Rank: %v, want ErrBadRequest", err)
	}
	// ...and one deadline shed (context already done at admission).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := model.NewRandomRequest(cfg, 1, stats.NewRNG(1))
	if _, err := eng.Rank(ctx, "", req); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired Rank: %v, want context.Canceled", err)
	}

	resp, err := http.Get(ts.URL + "/stats/" + DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if got, ok := st["rejected"].(float64); !ok || got != 1 {
		t.Errorf("stats rejected = %v, want 1", st["rejected"])
	}
	if got, ok := st["sheds"].(float64); !ok || got != 1 {
		t.Errorf("stats sheds = %v, want 1", st["sheds"])
	}
	if got, ok := st["errors"].(float64); !ok || got != 2 {
		t.Errorf("stats errors = %v, want 2 (rejection + shed)", st["errors"])
	}
}
