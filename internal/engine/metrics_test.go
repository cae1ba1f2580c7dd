package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

// goldenEngine builds a deterministic two-model engine and drives a
// fixed request sequence through it, so every non-timing value in the
// exposition is reproducible: Workers:1 and MaxBatch:1 make batch
// formation and counter order deterministic, and registration order
// (beta before alpha) differs from exposition order to pin the sorted
// output.
func goldenEngine(t *testing.T) *Engine {
	t.Helper()
	e := testEngine(t, Options{
		Workers: 1, QueueDepth: 8, MaxBatch: 1,
		MaxWait: time.Millisecond, IntraOpWorkers: 1,
		TraceRing: 2,
	})
	cfg := model.RMC1Small().Scaled(500)
	if err := e.Register("beta", buildModel(t, cfg, 2), ModelOptions{Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("alpha", buildModel(t, cfg, 1), ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Rank(ctx, "alpha", model.NewRandomRequest(cfg, 2, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Rank(ctx, "beta", model.NewRandomRequest(cfg, 4, rng)); err != nil {
		t.Fatal(err)
	}
	// One admission rejection: counted in rejected and errors.
	if _, err := e.Rank(ctx, "alpha", model.Request{Batch: -1}); err == nil {
		t.Fatal("bad request should be rejected")
	}
	return e
}

// maskTimings replaces the value of every timing-derived sample
// (latency bucket fills, latency sums, operator seconds) with X, so the
// golden file pins everything else byte-for-byte: family order, HELP
// and TYPE lines, label sets, sorted model order, and all
// count-derived values.
func maskTimings(s string) string {
	timing := []string{
		"recsys_rank_latency_seconds_bucket",
		"recsys_rank_latency_seconds_sum",
		"recsys_op_seconds_total",
	}
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		for _, p := range timing {
			rest, ok := strings.CutPrefix(ln, p)
			if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
				continue
			}
			if sp := strings.LastIndexByte(ln, ' '); sp >= 0 {
				lines[i] = ln[:sp+1] + "X"
			}
			break
		}
	}
	return strings.Join(lines, "\n")
}

// parseMetrics reads an exposition back into series → value. Fails the
// test on any syntactically bad sample line, so the golden test also
// guards the exposition against malformed output.
func parseMetrics(t *testing.T, s string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, ln := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", ln)
		}
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", ln, err)
		}
		if _, dup := out[ln[:sp]]; dup {
			t.Fatalf("duplicate series %q", ln[:sp])
		}
		out[ln[:sp]] = v
	}
	return out
}

// TestMetricsGolden pins the full /metrics exposition (modulo masked
// timing values) against testdata/metrics.golden. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/engine -run TestMetricsGolden
// after an intentional format change, and review the diff.
func TestMetricsGolden(t *testing.T) {
	e := goldenEngine(t)
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	got := maskTimings(buf.String())

	path := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s (UPDATE_GOLDEN=1 to regenerate):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestMetricsMonotonic scrapes twice around more traffic and checks
// that every counter-typed series (totals, histogram buckets, sums,
// counts) is non-decreasing — the property Prometheus rate() needs.
func TestMetricsMonotonic(t *testing.T) {
	e := goldenEngine(t)
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	before := parseMetrics(t, buf.String())

	cfg := model.RMC1Small().Scaled(500)
	rng := stats.NewRNG(9)
	for i := 0; i < 4; i++ {
		if _, err := e.Rank(context.Background(), "alpha", model.NewRandomRequest(cfg, 3, rng)); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	e.WriteMetrics(&buf)
	after := parseMetrics(t, buf.String())

	isCounter := func(series string) bool {
		name := series
		if br := strings.IndexByte(series, '{'); br >= 0 {
			name = series[:br]
		}
		return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_bucket") ||
			strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")
	}
	checked := 0
	for series, v0 := range before {
		if !isCounter(series) {
			continue
		}
		v1, ok := after[series]
		if !ok {
			t.Errorf("series %q disappeared between scrapes", series)
			continue
		}
		if v1 < v0 {
			t.Errorf("counter %q went backwards: %v -> %v", series, v0, v1)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d counter series checked; exposition incomplete?", checked)
	}
	if got := after[`recsys_requests_total{model="alpha"}`] - before[`recsys_requests_total{model="alpha"}`]; got != 4 {
		t.Errorf("alpha requests_total advanced by %v, want 4", got)
	}
}
