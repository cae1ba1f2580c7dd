package obs

import "sync/atomic"

// Histogram is a fixed-bucket histogram with lock-free observation:
// one atomic add per Observe, no allocation, safe for the engine's
// concurrent passes to hit at once. Bounds are inclusive upper
// bounds in ascending order; values above the last bound land in the
// implicit +Inf bucket. Values are int64 so the same type serves
// nanosecond latencies and sample counts without float atomics.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// NewHistogram returns a histogram over the given ascending inclusive
// upper bounds. It panics on unsorted or empty bounds — bucket layouts
// are compile-time constants, not user input.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value: an atomic add in the first bucket whose
// bound contains it, plus sum and count updates. The bucket is found by
// binary search — Observe sits on the engine's per-request hot path, so
// its cost must not scale with the bucket count (a linear scan over the
// 14-bound latency ladder was measurably slower for the common case of
// values landing in the upper buckets).
func (h *Histogram) Observe(v int64) {
	// Invariant: bounds[lo-1] < v, bounds[hi] >= v (treating bounds[-1]
	// as -Inf and bounds[len] as +Inf); converges on the first bucket
	// whose inclusive upper bound contains v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); Counts has one more entry than Bounds
// for the +Inf bucket.
type HistSnapshot struct {
	Bounds []int64
	Counts []int64
	Sum    int64
	Count  int64
}

// Snapshot copies the histogram state. Buckets are read individually,
// so a snapshot may straddle a concurrent Observe — fine for
// monitoring, which is its only consumer.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// LatencyBoundsNS are the engine's request-latency bucket bounds in
// nanoseconds: 100µs to 1s in a 1-2.5-5 ladder, matching the paper's
// microsecond-to-SLA latency range (§III quotes O(100µs)–O(100ms)
// budgets). Exposed in seconds on /metrics.
var LatencyBoundsNS = []int64{
	100_000, 250_000, 500_000, // 100µs, 250µs, 500µs
	1_000_000, 2_500_000, 5_000_000, // 1ms, 2.5ms, 5ms
	10_000_000, 25_000_000, 50_000_000, // 10ms, 25ms, 50ms
	100_000_000, 250_000_000, 500_000_000, // 100ms, 250ms, 500ms
	1_000_000_000, // 1s
}

// BatchBounds are the formed-batch size bucket bounds in samples:
// powers of two across the paper's batch sweep range (Figure 8 sweeps
// 1–256).
var BatchBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
