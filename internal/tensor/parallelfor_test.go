package tensor

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestParallelForPartition: every index in [0, n) is visited exactly
// once for a spread of range/worker combinations, including workers >
// n and the inline serial path.
func TestParallelForPartition(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 3}, {16, 4}, {16, 16}, {16, 100}, {1000, 7},
	} {
		visits := make([]atomic.Int32, tc.n)
		ParallelFor(tc.n, tc.workers, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d workers=%d: bad chunk [%d,%d)", tc.n, tc.workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

// TestParallelForPanicReraisedOnCaller is the tentpole's crash
// reproducer at the mechanism level: before ParallelFor, a panic in an
// intra-op shard ran on a bare goroutine and killed the whole process
// (no recover anywhere could catch it). Now the first shard panic is
// re-raised on the calling goroutine — where the engine's per-request
// recover can turn it into an error — after every shard has finished.
func TestParallelForPanicReraisedOnCaller(t *testing.T) {
	var completed atomic.Int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ParallelFor(8, 8, func(lo, hi int) {
			if lo == 2 {
				panic("shard 2 exploded")
			}
			completed.Add(1)
		})
		t.Error("ParallelFor returned normally despite a panicking shard")
	}()
	s, ok := recovered.(string)
	if !ok || !strings.Contains(s, "shard 2 exploded") {
		t.Fatalf("recovered %v, want the shard's panic value", recovered)
	}
	// The panic must not have abandoned the other shards mid-flight:
	// Wait re-raises only after every shard is done.
	if got := completed.Load(); got != 7 {
		t.Fatalf("%d shards completed, want 7", got)
	}
}

// TestParallelForConcurrentPanics: several shards panicking at once
// must neither deadlock nor crash; exactly one value is re-raised.
func TestParallelForConcurrentPanics(t *testing.T) {
	for round := 0; round < 20; round++ {
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			ParallelFor(16, 16, func(lo, hi int) {
				panic(lo) // every shard panics
			})
		}()
		if _, ok := recovered.(int); !ok {
			t.Fatalf("round %d: recovered %v, want a shard index", round, recovered)
		}
	}
}

// TestParallelForSerialPanic: the inline workers<=1 path panics on the
// caller directly, identically to the serial kernel.
func TestParallelForSerialPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("serial ParallelFor swallowed the panic")
		}
	}()
	ParallelFor(4, 1, func(lo, hi int) { panic("serial") })
}

// TestShardGroupNoPanic: a clean group waits for all shards and
// returns normally.
func TestShardGroupNoPanic(t *testing.T) {
	var g ShardGroup
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 10 {
		t.Fatalf("ran %d shards, want 10", n.Load())
	}
}

// TestParallelGemmPackedShardPanicRecoverable: a panic raised inside
// the row-partitioned GEMM fan-out (injected via an undersized output
// tensor that defeats the last shard's bounds checks) is observable
// with a plain recover on the calling goroutine.
func TestParallelGemmPackedShardPanicRecoverable(t *testing.T) {
	const m, k, n = 64, 64, 64 // above minParallelMAdds, so fan-out engages
	a, pb := New(m, k), PackB(New(k, n))
	// Hand-build a C whose header claims [m, n] but whose backing array
	// ends exactly where the last of the four 16-row shards begins: that
	// shard's first index into C must panic inside the shard goroutine,
	// not on the caller, while the other shards stay in bounds on both
	// kernel tiers.
	c := &Tensor{data: make([]float32, (m-m/4)*n), shape: []int{m, n}}
	defer func() {
		if recover() == nil {
			t.Error("undersized C should have panicked recoverably")
		}
	}()
	ParallelGemmPacked(a, pb, c, 4)
}
