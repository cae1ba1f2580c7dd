package engine

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/stats"
)

func buildModel(t *testing.T, cfg model.Config, seed uint64) *model.Model {
	t.Helper()
	m, err := model.Build(cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestRegisterValidation(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	m := buildModel(t, model.RMC1Small().Scaled(500), 1)
	if err := e.Register("", m, ModelOptions{}); err == nil {
		t.Error("empty name should be rejected")
	}
	if err := e.Register("a", nil, ModelOptions{}); err == nil {
		t.Error("nil model should be rejected")
	}
	if err := e.Register("a", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("a", m, ModelOptions{}); err == nil {
		t.Error("duplicate name should be rejected")
	}
	if err := e.Register("b", m, ModelOptions{Policy: batch.Policy{MaxBatch: 4, MaxWait: -time.Second}}); err == nil {
		t.Error("invalid policy should be rejected")
	}
	if got := e.Models(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Models() = %v", got)
	}
	if e.DefaultModel() != "a" {
		t.Errorf("default model %q, want a", e.DefaultModel())
	}
}

func TestRankUnknownModel(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	_, err := e.Rank(context.Background(), "ghost", model.Request{Batch: 1})
	if !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("err = %v, want ErrModelNotFound", err)
	}
}

// TestColocatedModelsEndToEnd is the acceptance scenario: two different
// model classes (scaled RMC1 and RMC3) registered in one engine, ranked
// against concurrently; every result stays bit-identical to direct
// execution, and each model reports its own stats and operator spans.
func TestColocatedModelsEndToEnd(t *testing.T) {
	cfg1 := model.RMC1Small().Scaled(500)
	cfg3 := model.RMC3Small().Scaled(500)
	m1 := buildModel(t, cfg1, 1)
	m3 := buildModel(t, cfg3, 2)

	e := testEngine(t, Options{Workers: 4, QueueDepth: 64, MaxBatch: 32, MaxWait: 2 * time.Millisecond})
	if err := e.Register("filter", m1, ModelOptions{Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("ranker", m3, ModelOptions{Policy: batch.Policy{MaxBatch: 16, MaxWait: time.Millisecond}}); err != nil {
		t.Fatal(err)
	}

	const perModel = 24
	var wg sync.WaitGroup
	errCh := make(chan error, 2*perModel)
	run := func(name string, cfg model.Config, m *model.Model, seed uint64) {
		defer wg.Done()
		rng := stats.NewRNG(seed)
		for i := 0; i < perModel; i++ {
			req := model.NewRandomRequest(cfg, 1+i%4, rng)
			want := m.CTR(req)
			got, err := e.Rank(context.Background(), name, req)
			if err != nil {
				errCh <- err
				return
			}
			if !ctrEqual(got, want) {
				errCh <- errors.New(name + ": served CTR differs from direct execution")
				return
			}
		}
	}
	wg.Add(2)
	go run("filter", cfg1, m1, 10)
	go run("ranker", cfg3, m3, 20)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	all := e.Stats()
	for _, name := range []string{"filter", "ranker"} {
		st, ok := all[name]
		if !ok {
			t.Fatalf("no stats for %q", name)
		}
		if st.Requests != perModel {
			t.Errorf("%s: %d requests, want %d", name, st.Requests, perModel)
		}
		if st.Batches == 0 || st.Samples == 0 {
			t.Errorf("%s: counters not moving: %+v", name, st)
		}
		// Per-operator spans from the instrumented forward pass.
		if st.KindUS["FC"] <= 0 || st.KindUS["SparseLengthsSum"] <= 0 {
			t.Errorf("%s: missing operator spans: %v", name, st.KindUS)
		}
		// Requests of 1-4 samples, six of each size.
		checkBatchHist(t, name, st, 32, 6*(1+2+3+4))
	}
	// The two models must not share counters.
	agg := e.AggregateStats()
	if agg.Requests != 2*perModel {
		t.Errorf("aggregate requests %d, want %d", agg.Requests, 2*perModel)
	}
}

// TestHotSwap: Swap atomically replaces weights; subsequent requests
// score with the new model, and incompatible shapes are rejected.
func TestHotSwap(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	mA := buildModel(t, cfg, 1)
	mB := buildModel(t, cfg, 99) // same shape, different weights

	e := testEngine(t, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1})
	if err := e.Register("m", mA, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	req := model.NewRandomRequest(cfg, 3, stats.NewRNG(7))
	got, err := e.Rank(context.Background(), "m", req)
	if err != nil {
		t.Fatal(err)
	}
	wantA := mA.CTR(req)
	if got[0] != wantA[0] {
		t.Fatal("pre-swap result differs from model A")
	}

	if err := e.Swap("m", mB); err != nil {
		t.Fatal(err)
	}
	got, err = e.Rank(context.Background(), "m", req)
	if err != nil {
		t.Fatal(err)
	}
	wantB := mB.CTR(req)
	if got[0] != wantB[0] {
		t.Fatal("post-swap result differs from model B")
	}
	if got[0] == wantA[0] {
		t.Fatal("swap had no effect (identical outputs are astronomically unlikely)")
	}

	// Shape guard: a different architecture cannot be swapped in.
	other := buildModel(t, model.RMC2Small().Scaled(500), 3)
	if err := e.Swap("m", other); err == nil {
		t.Error("incompatible swap should be rejected")
	}
	if err := e.Swap("ghost", mB); !errors.Is(err, ErrModelNotFound) {
		t.Errorf("swap of unknown model: %v", err)
	}
}

// TestDefaultModelIsOldest: the default model ("" in Rank, POST /rank)
// is the first model registered; before any registration "" resolves to
// nothing.
func TestDefaultModelIsOldest(t *testing.T) {
	m := buildModel(t, model.RMC1Small().Scaled(500), 1)
	e := testEngine(t, Options{Workers: 1, QueueDepth: 4, MaxBatch: 1})
	check := func(after, want string) {
		t.Helper()
		if got := e.DefaultModel(); got != want {
			t.Errorf("after %s: DefaultModel() = %q, want %q", after, got, want)
		}
		resolved := ""
		if mq, err := e.lookup(""); err == nil {
			resolved = mq.name
		} else if !errors.Is(err, ErrModelNotFound) {
			t.Fatalf("after %s: lookup(\"\"): %v", after, err)
		}
		if resolved != want {
			t.Errorf("after %s: \"\" resolves to %q, want %q", after, resolved, want)
		}
	}
	check("no registration", "")
	for _, name := range []string{"a", "b", "c"} {
		if err := e.Register(name, m, ModelOptions{}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		check("register "+name, "a")
	}
}

// TestWeightedPickOrder: the smooth-WRR scan offers dispatch slots in
// proportion to model weights, deterministically.
func TestWeightedPickOrder(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, Options{Workers: 1, QueueDepth: 4, MaxBatch: 1})
	if err := e.Register("heavy", buildModel(t, cfg, 1), ModelOptions{Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("light", buildModel(t, cfg, 2), ModelOptions{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var order []*modelQueue
	for i := 0; i < 6; i++ {
		order = e.pickOrder(order)
		counts[order[0].name]++
	}
	if counts["heavy"] != 4 || counts["light"] != 2 {
		t.Errorf("first-pick counts = %v, want heavy:4 light:2", counts)
	}
}

// TestDefaultModelBesideColocated: the first registered model is the
// default ("" resolves to it), more models can be co-located next to
// it, and the default's counters see none of their traffic.
func TestDefaultModelBesideColocated(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := defaultEngine(t, buildModel(t, cfg, 1), Options{Workers: 2, QueueDepth: 8, MaxBatch: 1})
	side := buildModel(t, model.RMC3Small().Scaled(500), 2)
	if err := e.Register("side", side, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := e.Models(); len(got) != 2 || got[0] != DefaultModelName || e.DefaultModel() != DefaultModelName {
		t.Fatalf("registry = %v, default %q", got, e.DefaultModel())
	}
	req := model.NewRandomRequest(side.Config, 2, stats.NewRNG(5))
	got, err := e.Rank(context.Background(), "side", req)
	if err != nil {
		t.Fatal(err)
	}
	want := side.CTR(req)
	if !ctrEqual(got[:1], want[:1]) {
		t.Error("co-located model served wrong scores")
	}
	if st := defaultStats(t, e); st.Requests != 0 {
		t.Errorf("default model's stats contaminated by side model: %+v", st)
	}
}

// TestBatchHistogramShape: under coalescing load the histogram records
// sizes within [1, MaxBatch] and accounts for every batch.
func TestBatchHistogramShape(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	m := buildModel(t, cfg, 1)
	e := testEngine(t, Options{Workers: 1, QueueDepth: 64, MaxBatch: 8, MaxWait: 10 * time.Millisecond})
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := model.NewRandomRequest(cfg, 1, stats.NewRNG(uint64(i)+1))
			if _, err := e.Rank(context.Background(), "m", req); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st, err := e.ModelStats("m")
	if err != nil {
		t.Fatal(err)
	}
	checkBatchHist(t, "m", st, 8, 30)
}

// checkBatchHist checks a model's batch-size buckets: every bucket lies
// in [1, maxBatch], the buckets count every formed batch, and the sample
// total (the histogram's sum) is wantSamples and within what the buckets
// allow. A batch in bucket le=b holds b/2+1 … b samples (BatchBounds are
// powers of two).
func checkBatchHist(t *testing.T, name string, st Stats, maxBatch, wantSamples int64) {
	t.Helper()
	var batches, lo, hi int64
	for le, n := range st.BatchHist {
		b, err := strconv.ParseInt(le, 10, 64)
		if err != nil || b < 1 || b > maxBatch {
			t.Errorf("%s: bucket le=%q outside [1, MaxBatch %d]", name, le, maxBatch)
			continue
		}
		batches += n
		lo += (b/2 + 1) * n
		hi += b * n
	}
	if batches != st.Batches {
		t.Errorf("%s: buckets count %d batches, stats say %d", name, batches, st.Batches)
	}
	if st.Samples != wantSamples || st.Samples < lo || st.Samples > hi {
		t.Errorf("%s: %d samples, want %d within the buckets' [%d, %d]", name, st.Samples, wantSamples, lo, hi)
	}
}

// TestEngineCloseAbortsBlockedSenders mirrors the single-model close
// semantics at the engine level.
func TestEngineCloseAbortsBlockedSenders(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	m := buildModel(t, cfg, 1)
	e, err := NewEngine(Options{Workers: 1, QueueDepth: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := model.NewRandomRequest(cfg, 8, stats.NewRNG(uint64(i)+1))
			_, err := e.Rank(context.Background(), "m", req)
			results <- err
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a full queue")
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil && err != ErrClosed {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if err := e.Register("late", m, ModelOptions{}); err != ErrClosed {
		t.Errorf("register after close: %v", err)
	}
}
