package engine

import (
	"bytes"
	"context"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/obs"
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

// TestStatsAgreeWithMetrics: Stats and /metrics are two views of one
// record. After a two-model load with mixed batch sizes, every total,
// percentile and batch-size bucket that Stats reports equals what a
// scrape exposes (or what the latency histogram estimates), per model
// and for the engine-wide aggregate.
func TestStatsAgreeWithMetrics(t *testing.T) {
	e := testEngine(t, Options{Workers: 2, QueueDepth: 64, MaxBatch: 16, MaxWait: time.Millisecond, IntraOpWorkers: 1})
	cfgs := map[string]model.Config{"a": model.RMC1Small().Scaled(500), "b": model.RMC3Small().Scaled(500)}
	for i, name := range []string{"a", "b"} {
		if err := e.Register(name, buildModel(t, cfgs[name], uint64(i+1)), ModelOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		name := []string{"a", "b"}[g%2]
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g) + 1)
			for i := 0; i < 12; i++ {
				req := model.NewRandomRequest(cfgs[name], 1+(g+i)%9, rng)
				if _, err := e.Rank(context.Background(), name, req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	scraped := parseMetrics(t, buf.String())
	// series reads family{model="m"<extra>} from the scrape, or with
	// m == "" the sum over both models; an absent series reads NaN.
	var series func(family, m, extra string) float64
	series = func(family, m, extra string) float64 {
		if m == "" {
			return series(family, "a", extra) + series(family, "b", extra)
		}
		v, ok := scraped[family+`{model="`+m+`"`+extra+`}`]
		if !ok {
			return math.NaN()
		}
		return v
	}

	var aggLat obs.HistSnapshot
	views := map[string]Stats{"": e.AggregateStats()}
	lats := map[string]obs.HistSnapshot{}
	for _, name := range []string{"a", "b"} {
		st, err := e.ModelStats(name)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := e.LatencySnapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		views[name], lats[name] = st, lat
		aggLat = aggLat.Add(lat)
	}
	lats[""] = aggLat

	for name, st := range views {
		label := name
		if label == "" {
			label = "aggregate"
		}
		checks := []struct {
			what string
			got  int64
			want []string
		}{
			{"Requests", st.Requests, []string{"recsys_requests_total", "recsys_rank_latency_seconds_count"}},
			{"Batches", st.Batches, []string{"recsys_batches_total", "recsys_batch_size_samples_count"}},
			{"Samples", st.Samples, []string{"recsys_samples_total", "recsys_batch_size_samples_sum"}},
		}
		for _, c := range checks {
			for _, fam := range c.want {
				if v := series(fam, name, ""); float64(c.got) != v {
					t.Errorf("%s: %s = %d, scraped %s = %v", label, c.what, c.got, fam, v)
				}
			}
		}
		for _, p := range []struct {
			got float64
			q   float64
		}{{st.P50US, 0.50}, {st.P95US, 0.95}, {st.P99US, 0.99}} {
			if want := lats[name].Quantile(p.q) / 1e3; p.got != want {
				t.Errorf("%s: p%v = %v µs, latency histogram estimates %v", label, 100*p.q, p.got, want)
			}
		}
		// Per-bucket counts from the scrape's cumulative buckets.
		want := map[string]int64{}
		var prev float64
		for _, b := range obs.BatchBounds {
			le := strconv.FormatInt(b, 10)
			cum := series("recsys_batch_size_samples_bucket", name, `,le="`+le+`"`)
			if n := int64(cum - prev); n > 0 {
				want[le] = n
			}
			prev = cum
		}
		if n := int64(series("recsys_batch_size_samples_bucket", name, `,le="+Inf"`) - prev); n > 0 {
			want["+Inf"] = n
		}
		if len(want) < 2 {
			t.Errorf("%s: scraped buckets %v, want a mix of batch sizes", label, want)
		}
		if !maps.Equal(st.BatchHist, want) {
			t.Errorf("%s: BatchHist %v, scraped per-bucket counts %v", label, st.BatchHist, want)
		}
	}
}
