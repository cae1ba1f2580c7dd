package engine

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/obs"
	"recsys/internal/stats"
)

func traceEngine(t *testing.T, opts Options, cfg model.Config) *Engine {
	t.Helper()
	e := testEngine(t, opts)
	if err := e.Register("m", buildModel(t, cfg, 1), ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTraceStagesTile checks the central trace invariant structurally:
// consecutive stages share their boundary timestamps (admission →
// validated → pop → pass start → pass end), so each is non-negative
// and their sum cannot exceed the end-to-end latency, whatever the
// scheduler does between two clock reads. How much of the request the
// stages cover (the remainder is response delivery) depends on the
// host and on -race, so it is logged, not asserted.
func TestTraceStagesTile(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := traceEngine(t, Options{
		Workers: 2, QueueDepth: 16, MaxBatch: 4,
		MaxWait: 500 * time.Microsecond, IntraOpWorkers: 1, TraceRing: 8,
	}, cfg)
	rng := stats.NewRNG(3)
	for i := 0; i < 6; i++ {
		if _, err := e.Rank(context.Background(), "m", model.NewRandomRequest(cfg, 2, rng)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := e.Traces("m")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Enabled || d.Added != 6 || len(d.Recent) != 6 || len(d.Slowest) != 6 {
		t.Fatalf("dump: enabled=%v added=%d recent=%d slowest=%d", d.Enabled, d.Added, len(d.Recent), len(d.Slowest))
	}
	for i := 1; i < len(d.Slowest); i++ {
		if d.Slowest[i].TotalUS > d.Slowest[i-1].TotalUS {
			t.Fatalf("slowest board out of order at %d: %v > %v", i, d.Slowest[i].TotalUS, d.Slowest[i-1].TotalUS)
		}
	}
	for _, tr := range d.Recent {
		if tr.Outcome != obs.OutcomeOK {
			t.Fatalf("outcome %q: %+v", tr.Outcome, tr)
		}
		if tr.Model != "m" || tr.Batch != 2 || tr.BatchSamples < tr.Batch {
			t.Fatalf("identity fields: %+v", tr)
		}
		if tr.ExecuteUS <= 0 || len(tr.Ops) == 0 {
			t.Fatalf("execute stage missing: %+v", tr)
		}
		// One caller at a time on two workers: never held, never full.
		if tr.BatchCut != cutFree.String() {
			t.Fatalf("batch cut %q, want %q: %+v", tr.BatchCut, cutFree, tr)
		}
		for _, us := range []float64{tr.ValidateUS, tr.QueueWaitUS, tr.BatchFormUS} {
			if us < 0 {
				t.Fatalf("negative stage: %+v", tr)
			}
		}
		sum := tr.StageSumUS()
		if sum > tr.TotalUS {
			t.Fatalf("stages (%vµs) exceed end-to-end (%vµs)", sum, tr.TotalUS)
		}
		t.Logf("stages cover %.1f%% of %.0fµs end-to-end", 100*sum/tr.TotalUS, tr.TotalUS)
	}
}

// TestTraceTerminalOutcomes checks that requests that never reach the
// executor still leave a trace: admission rejections and
// already-expired (shed) requests.
func TestTraceTerminalOutcomes(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := traceEngine(t, Options{
		Workers: 1, QueueDepth: 4, MaxBatch: 1,
		MaxWait: time.Millisecond, IntraOpWorkers: 1, TraceRing: 4,
	}, cfg)

	if _, err := e.Rank(context.Background(), "m", model.Request{Batch: -3}); err == nil {
		t.Fatal("want rejection")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := stats.NewRNG(5)
	if _, err := e.Rank(ctx, "m", model.NewRandomRequest(cfg, 1, rng)); err == nil {
		t.Fatal("want shed")
	}

	d, err := e.Traces("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Recent) != 2 {
		t.Fatalf("got %d traces, want 2", len(d.Recent))
	}
	// Recent is newest-first: shed then rejection.
	if d.Recent[0].Outcome != obs.OutcomeShed || d.Recent[1].Outcome != obs.OutcomeRejected {
		t.Fatalf("outcomes: %q, %q", d.Recent[0].Outcome, d.Recent[1].Outcome)
	}
	for _, tr := range d.Recent {
		if tr.Err == "" || tr.TotalUS <= 0 || tr.ExecuteUS != 0 {
			t.Fatalf("terminal trace: %+v", tr)
		}
	}
}

// TestTracesDisabled: with TraceRing 0 the dump degrades gracefully
// and ranking still works.
func TestTracesDisabled(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := traceEngine(t, Options{
		Workers: 1, QueueDepth: 4, MaxBatch: 1,
		MaxWait: time.Millisecond, IntraOpWorkers: 1,
	}, cfg)
	rng := stats.NewRNG(5)
	if _, err := e.Rank(context.Background(), "m", model.NewRandomRequest(cfg, 1, rng)); err != nil {
		t.Fatal(err)
	}
	d, err := e.Traces("m")
	if err != nil {
		t.Fatal(err)
	}
	if d.Enabled || d.Added != 0 || len(d.Recent) != 0 || len(d.Slowest) != 0 {
		t.Fatalf("disabled dump: %+v", d)
	}
	if _, err := e.Traces("ghost"); err == nil {
		t.Fatal("unknown model should error")
	}
}

// TestTraceConcurrentScrape hammers one traced model from many ranking
// goroutines while others continuously snapshot traces and scrape
// /metrics — the race-detector test for the ring, the histograms, and
// the queue-depth gauge reads against live traffic.
func TestTraceConcurrentScrape(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := traceEngine(t, Options{
		Workers: 2, QueueDepth: 8, MaxBatch: 8,
		MaxWait: 200 * time.Microsecond, IntraOpWorkers: 1, TraceRing: 4,
	}, cfg)

	const rankers, perRanker = 4, 25
	var rankWG sync.WaitGroup
	for g := 0; g < rankers; g++ {
		rankWG.Add(1)
		go func(seed uint64) {
			defer rankWG.Done()
			rng := stats.NewRNG(seed)
			for i := 0; i < perRanker; i++ {
				if _, err := e.Rank(context.Background(), "m", model.NewRandomRequest(cfg, 2, rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(g + 10))
	}
	// The scraper loops until the rankers finish, so every snapshot
	// races live ring writes and histogram observes.
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Traces("m"); err != nil {
				t.Error(err)
				return
			}
			e.WriteMetrics(io.Discard)
		}
	}()
	rankWG.Wait()
	close(stop)
	<-scraperDone

	d, err := e.Traces("m")
	if err != nil {
		t.Fatal(err)
	}
	if d.Added != rankers*perRanker {
		t.Fatalf("added %d traces, want %d", d.Added, rankers*perRanker)
	}
	if len(d.Recent) != 4 || len(d.Slowest) != 4 {
		t.Fatalf("ring sizes: recent=%d slowest=%d, want 4", len(d.Recent), len(d.Slowest))
	}
}

// TestRankIntoNoAllocs is the inline version of the bench-regression
// gate: with tracing disabled, the steady-state RankInto path performs
// no allocations on the caller side (the executor's arena and pooled
// buffers absorb the rest), for fp32 tables and for int8 ones (the
// local gather's fused dequantize-accumulate into the arena).
func TestRankIntoNoAllocs(t *testing.T) {
	if raceEnabled {
		// The job pool is a sync.Pool; the race detector drops a quarter
		// of its puts, and every dropped job is re-allocated with its
		// buffers. The contract is enforced without -race, here and by
		// the bench-regression gate.
		t.Skip("sync.Pool drops puts under -race; alloc counts meaningless")
	}
	for _, int8Tables := range []bool{false, true} {
		t.Run(map[bool]string{false: "fp32", true: "int8"}[int8Tables], func(t *testing.T) {
			cfg := model.RMC1Small().Scaled(500)
			e := testEngine(t, Options{
				Workers: 1, QueueDepth: 4, MaxBatch: 1,
				MaxWait: time.Millisecond, IntraOpWorkers: 1,
			})
			m := buildModel(t, cfg, 1)
			if int8Tables {
				m.QuantizeTables()
			}
			if err := e.Register("m", m, ModelOptions{}); err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(11)
			req := model.NewRandomRequest(cfg, 4, rng)
			ctx := context.Background()
			dst := make([]float32, 0, req.Batch)
			// Warm the job pool and the worker scratch.
			for i := 0; i < 50; i++ {
				if _, err := e.RankInto(ctx, "m", dst, req); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := e.RankInto(ctx, "m", dst, req); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0.5 {
				t.Fatalf("RankInto allocates %.2f/op with tracing off, want 0", allocs)
			}
		})
	}
}
