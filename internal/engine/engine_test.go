package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

func testModel(t *testing.T) *model.Model {
	t.Helper()
	m, err := model.Build(model.RMC1Small().Scaled(500), stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// defaultEngine returns an engine serving m as its default model,
// closed when the test ends.
func defaultEngine(t *testing.T, m *model.Model, opts Options) *Engine {
	t.Helper()
	e := testEngine(t, opts)
	if err := e.Register(DefaultModelName, m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// defaultStats returns the default model's counters.
func defaultStats(t *testing.T, e *Engine) Stats {
	t.Helper()
	st, err := e.ModelStats("")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := NewEngine(Options{Workers: 0, QueueDepth: 1}); err == nil {
		t.Error("zero workers should error")
	}
	if _, err := NewEngine(Options{Workers: 1, QueueDepth: 0}); err == nil {
		t.Error("zero queue should error")
	}
	if err := testEngine(t, DefaultOptions()).Register(DefaultModelName, nil, ModelOptions{}); err == nil {
		t.Error("nil model should error")
	}
}

func TestRankMatchesDirectForward(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 2, QueueDepth: 8, MaxBatch: 1})
	req := model.NewRandomRequest(m.Config, 5, stats.NewRNG(1))
	want := m.CTR(req)
	got, err := e.Rank(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}
	if !ctrEqual(got, want) {
		t.Fatalf("served CTR differs: %v vs %v", got, want)
	}
}

// TestBatchingIsTransparent: with cross-request coalescing on, results
// are still bit-identical to direct execution, because the forward pass
// is row-independent. A lone worker never holds a batch open, so the
// coalescing comes from a backlog: the requests queue while the worker
// is parked inside a pass, and it takes them all in one batch after.
func TestBatchingIsTransparent(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 1, QueueDepth: 64, MaxBatch: 64, MaxWait: 20 * time.Millisecond})

	const n = 24
	reqs := make([]model.Request, n)
	wants := make([][]float32, n)
	for i := range reqs {
		reqs[i] = model.NewRandomRequest(m.Config, 1+i%3, stats.NewRNG(uint64(i)+10))
		wants[i] = m.CTR(reqs[i])
	}
	release := parkWorkers(t, e, DefaultModelName, reqs[0])
	var wg sync.WaitGroup
	errs := make([]error, n)
	gots := make([][]float32, n)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gots[i], errs[i] = e.Rank(context.Background(), "", reqs[i])
		}(i)
	}
	waitQueued(t, e, DefaultModelName, n)
	release()
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !ctrEqual(gots[i], wants[i]) {
			t.Fatalf("request %d: %v vs %v", i, gots[i], wants[i])
		}
	}
	// Coalescing must actually have happened.
	st := defaultStats(t, e)
	if st.Batches >= st.Requests {
		t.Errorf("no coalescing: %d batches for %d requests", st.Batches, st.Requests)
	}
	if st.AvgBatch() <= 1.5 {
		t.Errorf("avg batch %.2f, want > 1.5", st.AvgBatch())
	}
}

func TestConcurrentLoad(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 4, QueueDepth: 32, MaxBatch: 16, MaxWait: time.Millisecond})
	var wg sync.WaitGroup
	const goroutines, perG = 16, 20
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g) + 1)
			for i := 0; i < perG; i++ {
				req := model.NewRandomRequest(m.Config, 2, rng)
				if _, err := e.Rank(context.Background(), "", req); err != nil {
					errCh <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := defaultStats(t, e); st.Requests != goroutines*perG || st.Samples != 2*goroutines*perG {
		t.Errorf("stats %+v", st)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 2, QueueDepth: 8, MaxBatch: 1})
	rng := stats.NewRNG(1)
	for i := 0; i < 30; i++ {
		if _, err := e.Rank(context.Background(), "", model.NewRandomRequest(m.Config, 2, rng)); err != nil {
			t.Fatal(err)
		}
	}
	st := defaultStats(t, e)
	if st.P50US <= 0 || st.P99US < st.P50US || st.P95US < st.P50US || st.P99US < st.P95US {
		t.Errorf("latency percentiles inconsistent: p50=%.1f p95=%.1f p99=%.1f", st.P50US, st.P95US, st.P99US)
	}
}

func TestContextCancellation(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 1, QueueDepth: 4, MaxBatch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := model.NewRandomRequest(m.Config, 1, stats.NewRNG(1))
	if _, err := e.Rank(ctx, "", req); err == nil {
		t.Error("cancelled context should fail")
	}
}

func TestCloseSemantics(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, DefaultOptions())
	// In-flight request completes before Close returns.
	req := model.NewRandomRequest(m.Config, 1, stats.NewRNG(1))
	if _, err := e.Rank(context.Background(), "", req); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Rank(context.Background(), "", req); err != ErrClosed {
		t.Errorf("Rank after Close = %v, want ErrClosed", err)
	}
}

// TestCloseWhileQueueFull: Rank calls blocked on a saturated queue must
// abort with ErrClosed rather than deadlock or panic when the server
// shuts down.
func TestCloseWhileQueueFull(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 1, QueueDepth: 1, MaxBatch: 1})
	// Saturate: many concurrent big-ish requests on one worker.
	var wg sync.WaitGroup
	results := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := model.NewRandomRequest(m.Config, 8, stats.NewRNG(uint64(i)+1))
			_, err := e.Rank(context.Background(), "", req)
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
	// Every request either succeeded or got ErrClosed — never a panic
	// or hang.
	for err := range results {
		if err != nil && err != ErrClosed {
			t.Errorf("unexpected error: %v", err)
		}
	}
}
