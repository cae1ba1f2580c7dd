package server

import (
	"testing"
	"time"

	"recsys/internal/arch"
	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/stats"
)

func batcherConfig() BatcherConfig {
	return BatcherConfig{
		SimConfig: SimConfig{
			Model:    model.RMC3Small(),
			Machine:  arch.Skylake(),
			Workers:  4,
			QPS:      20_000,
			Requests: 8000,
			SLAUS:    50_000,
			Seed:     1,
		},
		Policy: batch.Policy{MaxBatch: 64, MaxWait: 2 * time.Millisecond},
	}
}

func TestSimulateBatchedBasics(t *testing.T) {
	res := SimulateBatched(batcherConfig())
	if res.Completed != 8000 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.ThroughputQPS <= 0 || res.Latencies.Min() <= 0 {
		t.Fatal("degenerate result")
	}
}

func TestSimulateBatchedDeterministic(t *testing.T) {
	a := SimulateBatched(batcherConfig())
	b := SimulateBatched(batcherConfig())
	if a.Latencies.Mean() != b.Latencies.Mean() {
		t.Error("same seed must give identical results")
	}
}

// TestBatchingBeatsUnitServing: under heavy load on the compute-bound
// model, coalescing queries into AVX-512-sized batches multiplies
// goodput versus serving each query alone.
func TestBatchingBeatsUnitServing(t *testing.T) {
	bc := batcherConfig()
	batched := SimulateBatched(bc)

	unit := bc
	unit.Policy.MaxBatch = 1
	unitRes := SimulateBatched(unit)

	if batched.GoodputQPS() <= 2*unitRes.GoodputQPS() {
		t.Errorf("batched goodput %.0f should be ≫ unit-batch %.0f",
			batched.GoodputQPS(), unitRes.GoodputQPS())
	}
}

// TestMaxWaitBoundsLatencyAtLowLoad: at trickle load the batcher must
// dispatch on the wait timer, so queueing delay stays near MaxWaitUS.
func TestMaxWaitBoundsLatencyAtLowLoad(t *testing.T) {
	bc := batcherConfig()
	bc.QPS = 50 // 20ms between queries: batches of one, timer-dispatched
	bc.Requests = 500
	bc.Policy.MaxWait = time.Millisecond
	res := SimulateBatched(bc)
	service := 700.0 // RMC3 batch-1 on Skylake is ~1ms; generous bound
	if p99 := res.Latencies.Percentile(99); p99 > bc.Policy.WaitUS()+10*service+5000 {
		t.Errorf("p99 %.0fµs far exceeds wait+service bound", p99)
	}
	// Mean batch size must be ~1 at this load: per-query latency close
	// to the batch-1 service time.
	if res.Latencies.Mean() > 5000 {
		t.Errorf("mean %.0fµs too high for trickle load", res.Latencies.Mean())
	}
}

// TestLargerMaxWaitTradesLatencyForThroughput.
func TestLargerMaxWaitTradesLatencyForThroughput(t *testing.T) {
	quick := batcherConfig()
	quick.Policy.MaxWait = 100 * time.Microsecond
	patient := batcherConfig()
	patient.Policy.MaxWait = 10 * time.Millisecond
	q := SimulateBatched(quick)
	p := SimulateBatched(patient)
	// Waiting longer forms bigger batches: throughput should not drop.
	if p.ThroughputQPS < q.ThroughputQPS*0.9 {
		t.Errorf("patient batching throughput %.0f dropped vs quick %.0f", p.ThroughputQPS, q.ThroughputQPS)
	}
}

// TestSimulateBatchedZeroWait: MaxWait=0 must still complete every
// request — each batch dispatches immediately with whatever is queued
// (batches of one under the continuous arrival process).
func TestSimulateBatchedZeroWait(t *testing.T) {
	bc := batcherConfig()
	bc.Policy.MaxWait = 0
	bc.Requests = 2000
	res := SimulateBatched(bc)
	if res.Completed != 2000 {
		t.Fatalf("completed %d, want 2000", res.Completed)
	}
	again := SimulateBatched(bc)
	if res.Latencies.Mean() != again.Latencies.Mean() {
		t.Error("zero-wait run must stay deterministic")
	}
}

// TestSimultaneousArrivalsAtDeadline drives the dispatch loop with a
// crafted arrival stream: queries landing exactly on the first query's
// wait deadline must join its batch (the deadline is inclusive), and
// simultaneous arrivals share a batch even with MaxWait=0.
func TestSimultaneousArrivalsAtDeadline(t *testing.T) {
	bc := batcherConfig()
	bc.Policy = batch.Policy{MaxBatch: 8, MaxWait: time.Millisecond}
	bc.Workers = 1
	// Arrivals: one at t=0, three exactly at the 1000µs deadline, one
	// just past it.
	arrivals := []float64{0, 1000, 1000, 1000, 1000.01}
	res := runBatched(bc, 1, arrivals, stats.NewRNG(bc.Seed))
	if res.Completed != 5 {
		t.Fatalf("completed %d, want 5", res.Completed)
	}
	// Deadline-inclusive batching ⇒ the first dispatch is {0, 1000,
	// 1000, 1000}: the three deadline arrivals share its completion
	// time (latency min, thrice), and the head query's latency is
	// exactly 1000µs more (same done time, 1000µs earlier arrival). If
	// the deadline were exclusive, the head would dispatch alone and no
	// such exact pairing exists.
	lats := res.Latencies.Values() // sorted
	if lats[0] != lats[1] || lats[1] != lats[2] {
		t.Errorf("deadline arrivals should share the head's batch: %v", lats)
	}
	head := lats[0] + 1000
	found := false
	for _, l := range lats {
		if l == head {
			found = true
		}
	}
	if !found {
		t.Errorf("no latency exactly %v (head query in the deadline batch): %v", head, lats)
	}

	// MaxWait=0: only exactly-simultaneous arrivals coalesce.
	bc.Policy = batch.Policy{MaxBatch: 8, MaxWait: 0}
	arrivals = []float64{0, 0, 0, 5}
	res = runBatched(bc, 1, arrivals, stats.NewRNG(bc.Seed))
	lats = res.Latencies.Values()
	if lats[0] != lats[1] || lats[1] != lats[2] {
		t.Error("simultaneous arrivals must share one zero-wait batch")
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d, want 4", res.Completed)
	}
}

// TestFinalFlushSmallerThanMaxBatch: a stream ending mid-batch must
// dispatch the partial batch without waiting out the timer.
func TestFinalFlushSmallerThanMaxBatch(t *testing.T) {
	bc := batcherConfig()
	bc.Policy = batch.Policy{MaxBatch: 64, MaxWait: 100 * time.Millisecond}
	bc.Workers = 1
	// Ten closely spaced arrivals, far fewer than MaxBatch: one final
	// flush at the last arrival, not at the 100ms deadline.
	arrivals := make([]float64, 10)
	for i := range arrivals {
		arrivals[i] = float64(i) // 1µs apart
	}
	res := runBatched(bc, 1, arrivals, stats.NewRNG(bc.Seed))
	if res.Completed != 10 {
		t.Fatalf("completed %d, want 10", res.Completed)
	}
	// Flush-at-last-arrival: every latency is far below the wait bound.
	if max := res.Latencies.Max(); max >= bc.Policy.WaitUS() {
		t.Errorf("max latency %.0fµs: final flush waited out the timer", max)
	}
}

func TestSimulateBatchedPanics(t *testing.T) {
	for _, mutate := range []func(*BatcherConfig){
		func(c *BatcherConfig) { c.Workers = 0 },
		func(c *BatcherConfig) { c.Policy.MaxBatch = 0 },
		func(c *BatcherConfig) { c.Policy.MaxWait = -time.Microsecond },
		func(c *BatcherConfig) { c.QPS = 0 },
	} {
		c := batcherConfig()
		mutate(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			SimulateBatched(c)
		}()
	}
}
