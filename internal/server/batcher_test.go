package server

import (
	"math"
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

// TestMaxWaitIsFreeAtLowLoad: at trickle load every query finds an idle
// worker, so nothing is ever held and MaxWait cannot show in the
// result: a 100 µs cap and a 10 ms cap give the same latencies to the
// bit.
func TestMaxWaitIsFreeAtLowLoad(t *testing.T) {
	bc := batcherConfig()
	bc.QPS = 50 // 20ms between queries: batches of one
	bc.Requests = 500
	bc.Policy.MaxWait = 100 * time.Microsecond
	quick := SimulateBatched(bc)
	bc.Policy.MaxWait = 10 * time.Millisecond
	patient := SimulateBatched(bc)
	if bitsOf(quick) != bitsOf(patient) {
		t.Errorf("MaxWait moved an idle server's latencies:\n 100µs %#v\n 10ms  %#v", bitsOf(quick), bitsOf(patient))
	}
	// And the latency is the batch-1 service time, not service + wait.
	if mean := patient.Latencies.Mean(); mean > 5000 {
		t.Errorf("mean %.0fµs too high for trickle load", mean)
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

// busyPeer is an arrival prefix that parks worker 0 of a two-worker
// pool in a long pass: a full batch at t=0. Whatever arrives next is
// formed by worker 1 with its only peer busy, which is the one
// situation in which the rule holds.
func busyPeer(maxBatch int) []float64 { return make([]float64, maxBatch) }

// near reports a == b up to float rounding of the subtraction.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestSimultaneousArrivalsAtDeadline drives the dispatch loop with a
// crafted arrival stream: queries landing exactly when a hold's MaxWait
// runs out must join its batch (the cap is inclusive), and
// simultaneous arrivals share a batch even with MaxWait=0.
func TestSimultaneousArrivalsAtDeadline(t *testing.T) {
	bc := batcherConfig()
	bc.Policy = batch.Policy{MaxBatch: 8, MaxWait: 20 * time.Microsecond}
	bc.Workers = 2
	// Worker 1 pops the query at t=1 and holds until t=21: two land
	// exactly then, one just after.
	arrivals := append(busyPeer(8), 1, 21, 21, 21.01)
	res := runBatched(bc, 1, arrivals, stats.NewRNG(bc.Seed))
	if res.Completed != len(arrivals) {
		t.Fatalf("completed %d, want %d", res.Completed, len(arrivals))
	}
	// Cap-inclusive batching ⇒ the held dispatch is {1, 21, 21}: some
	// latency x occurs exactly twice (the full batch's occurs eight
	// times) with the head's exactly 20µs above it, and the straggler
	// did not ride along (it would sit 0.01µs below x). If the cap were
	// exclusive the head would dispatch alone.
	lats := res.Latencies.Values()
	count := func(v float64) (n int) {
		for _, l := range lats {
			if near(l, v) {
				n++
			}
		}
		return n
	}
	found := false
	for _, x := range lats {
		if count(x) == 2 && count(x+20) == 1 && count(x-0.01) == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("arrivals at the cap should share the held batch, the one after it should not: %v", lats)
	}

	// MaxWait=0: only exactly-simultaneous arrivals coalesce.
	bc.Policy = batch.Policy{MaxBatch: 8, MaxWait: 0}
	bc.Workers = 1
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

// TestHoldEndsWithPeerPass: a hold is cut the instant the busy peer's
// pass ends, long before a generous MaxWait, and what arrived during
// the hold rides along.
func TestHoldEndsWithPeerPass(t *testing.T) {
	bc := batcherConfig()
	bc.Policy = batch.Policy{MaxBatch: 8, MaxWait: time.Second}
	bc.Workers = 2
	arrivals := append(busyPeer(8), 1, 2)
	res := runBatched(bc, 1, arrivals, stats.NewRNG(bc.Seed))
	lats := res.Latencies.Values()
	// The full batch finishes first (eight equal latencies, worker 0's
	// pass P); the held pair dispatches at P, so both exceed P, differ
	// by their 1µs arrival gap, and are nowhere near the 1s cap.
	pass := lats[0]
	if lats[7] != pass {
		t.Fatalf("full batch should finish together: %v", lats)
	}
	late, early := lats[9], lats[8] // arrived at 1, arrived at 2
	if !near(late, early+1) {
		t.Errorf("queries at t=1 and t=2 should share the held batch: %v %v", late, early)
	}
	if late+1 <= pass || late >= bc.Policy.WaitUS() {
		t.Errorf("held batch (latency %.0fµs) should dispatch when the peer's pass (%.0fµs) ends", late, pass)
	}
}

// TestFreePeerMeansNoHold: with the peer idle a partial batch dispatches
// on arrival however long MaxWait is, and a pool of one never holds.
func TestFreePeerMeansNoHold(t *testing.T) {
	for _, workers := range []int{1, 2} {
		bc := batcherConfig()
		bc.Policy = batch.Policy{MaxBatch: 8, MaxWait: time.Second}
		bc.Workers = workers
		res := runBatched(bc, 1, []float64{0, 1e6}, stats.NewRNG(bc.Seed))
		if max := res.Latencies.Max(); max > 10_000 {
			t.Errorf("%d workers: idle server charged %.0fµs: a query was held", workers, max)
		}
	}
}

// TestFinalFlushSmallerThanMaxBatch: a stream ending mid-batch must
// dispatch the partial batch without waiting out the timer. One worker
// never holds: the tail coalesces behind the first query's pass.
func TestFinalFlushSmallerThanMaxBatch(t *testing.T) {
	bc := batcherConfig()
	bc.Policy = batch.Policy{MaxBatch: 64, MaxWait: 100 * time.Millisecond}
	bc.Workers = 1
	// Ten closely spaced arrivals, far fewer than MaxBatch: flushed when
	// the worker comes free, not at the 100ms cap.
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
