package engine

import (
	"strconv"
	"sync/atomic"
	"time"

	"recsys/internal/nn"
	"recsys/internal/obs"
)

// Stats are cumulative serving counters and latency percentiles for
// one registered model. Requests, Samples, Batches, the percentiles and
// BatchHist are read off the two histograms GET /metrics exposes
// (recsys_rank_latency_seconds, recsys_batch_size_samples), so /stats
// and a scrape report one record of each request and each pass.
type Stats struct {
	Requests int64 // Rank calls completed successfully
	Samples  int64 // user-item pairs ranked
	Batches  int64 // forward passes executed
	Errors   int64 // failed requests (bad input, shed, or cancelled)
	// Rejected counts requests refused by admission-time validation
	// (ErrBadRequest family). A subset of Errors.
	Rejected int64
	// Sheds counts deadline sheds: jobs dropped without a forward pass
	// because their context was already done — at admission, at queue
	// pop, or just before processing.
	Sheds int64
	// Splits counts oversized requests fanned out across the executor
	// pool (Policy.SplitAbove). Each chunk then counts as its own
	// request, so Requests grows by the chunk count, Splits by one.
	Splits int64
	// P50US, P95US, and P99US are end-to-end Rank latency percentiles
	// in microseconds since registration, interpolated within the
	// latency histogram's buckets (obs.HistSnapshot.Quantile, the
	// estimator of Prometheus's histogram_quantile). The recent tail is
	// the scheduling controller's windowed view (recsys_sched_p99_seconds).
	P50US, P95US, P99US float64
	// BatchHist counts formed batches per batch-size bucket, keyed by the
	// bucket's upper bound as /metrics labels it ("1", "2", … "256",
	// "+Inf"); counts are per bucket, not cumulative, and empty buckets
	// are left out. An anomalous AvgBatch can be traced to its size
	// distribution (e.g. a bimodal mix of timer flushes and full batches).
	BatchHist map[string]int64
	// Cuts counts formed batches by why the former stopped growing them
	// ("full", "free", "wait", "deadline", "drain"; see cutReason): the
	// answer to "is MaxWait being paid, and by whom".
	Cuts map[string]int64
	// KindUS is cumulative per-operator-kind execution time in
	// microseconds, from the instrumented forward pass — the live
	// analogue of the paper's Figure 7 operator breakdowns.
	KindUS map[string]float64
	// EmbCache holds the per-table embedding hot-row cache counters,
	// indexed by table position; nil when Options.EmbCache is off or
	// the model's tables are in-process (only a remote tier is cached).
	EmbCache []EmbCacheStats
}

// EmbCacheStats is one embedding table's hot-row cache snapshot.
type EmbCacheStats struct {
	Table     int     `json:"table"`
	Capacity  int     `json:"capacity_rows"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// AvgBatch returns the mean samples per forward pass.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Samples) / float64(s.Batches)
}

// readHists fills the histogram-derived fields from a latency snapshot
// (nanoseconds) and a batch-size snapshot (samples).
func (s *Stats) readHists(lat, batch obs.HistSnapshot) {
	s.Requests = lat.Count
	s.Batches, s.Samples = batch.Count, batch.Sum
	s.P50US = lat.Quantile(0.50) / 1e3
	s.P95US = lat.Quantile(0.95) / 1e3
	s.P99US = lat.Quantile(0.99) / 1e3
	s.BatchHist = make(map[string]int64)
	for i, n := range batch.Counts {
		le := "+Inf"
		if i < len(batch.Bounds) {
			le = strconv.FormatInt(batch.Bounds[i], 10)
		}
		if n > 0 {
			s.BatchHist[le] = n
		}
	}
}

// merge accumulates other's counters, cut reasons, kind times and cache
// counters into s, for the engine-wide aggregate view. The
// histogram-derived fields are not merged: the caller reads them off the
// summed histograms (readHists), since percentiles do not add.
func (s *Stats) merge(other Stats) {
	s.Errors += other.Errors
	s.Rejected += other.Rejected
	s.Sheds += other.Sheds
	s.Splits += other.Splits
	for r, n := range other.Cuts {
		if s.Cuts == nil {
			s.Cuts = make(map[string]int64)
		}
		s.Cuts[r] += n
	}
	for k, us := range other.KindUS {
		if s.KindUS == nil {
			s.KindUS = make(map[string]float64)
		}
		s.KindUS[k] += us
	}
	// Embedding-cache counters sum by table position; the aggregate
	// hit rate is recomputed from the summed counters.
	for _, ec := range other.EmbCache {
		for len(s.EmbCache) <= ec.Table {
			s.EmbCache = append(s.EmbCache, EmbCacheStats{Table: len(s.EmbCache)})
		}
		t := &s.EmbCache[ec.Table]
		t.Capacity += ec.Capacity
		t.Hits += ec.Hits
		t.Misses += ec.Misses
		t.Evictions += ec.Evictions
		if n := t.Hits + t.Misses; n > 0 {
			t.HitRate = float64(t.Hits) / float64(n)
		}
	}
}

// nKinds sizes the per-operator-kind accumulators.
const nKinds = int(nn.KindOther) + 1

// counters is the mutable serving-statistics state of one model queue,
// lock-free throughout: a served request is recorded once, in latHist,
// and a formed batch once, in batchHist.
type counters struct {
	errs     atomic.Int64
	rejected atomic.Int64 // admission-validation refusals
	sheds    atomic.Int64 // deadline sheds (no forward pass run)
	splits   atomic.Int64 // oversized requests split across the pool

	// cuts counts formed batches by cut reason (formBatch).
	cuts [nCutReasons]atomic.Int64

	// kindNS accumulates instrumented forward-pass time per operator
	// kind, in nanoseconds. Concurrent passes add concurrently.
	kindNS [nKinds]atomic.Int64

	// latHist and batchHist are cumulative (never reset) fixed-bucket
	// histograms: every request and pass total, percentile and size
	// distribution that Stats, /metrics and the scheduling controller
	// report is read off them.
	latHist   *obs.Histogram // served-request latency, nanoseconds
	batchHist *obs.Histogram // formed-batch size, samples
}

// init allocates the fixed-bucket histograms; called once per model
// queue at registration.
func (c *counters) init() {
	c.latHist = obs.NewHistogram(obs.LatencyBoundsNS)
	c.batchHist = obs.NewHistogram(obs.BatchBounds)
}

// OpSpan implements model.SpanObserver: per-operator time lands in the
// per-kind accumulators. The name is dropped here; per-op detail goes to
// the request traces (spanTap), serving stats track kinds.
func (c *counters) OpSpan(_ string, kind nn.Kind, d time.Duration) {
	c.kindNS[kind].Add(int64(d))
}

// snapshot returns a consistent-enough copy of the counters for
// reporting. Counters are read individually; the totals may straddle
// an in-flight request, which is fine for monitoring.
func (c *counters) snapshot() Stats {
	st := Stats{
		Errors:   c.errs.Load(),
		Rejected: c.rejected.Load(),
		Sheds:    c.sheds.Load(),
		Splits:   c.splits.Load(),
	}
	st.readHists(c.latHist.Snapshot(), c.batchHist.Snapshot())
	for r := range c.cuts {
		if n := c.cuts[r].Load(); n > 0 {
			if st.Cuts == nil {
				st.Cuts = make(map[string]int64, nCutReasons)
			}
			st.Cuts[cutReason(r).String()] = n
		}
	}
	for k := 0; k < nKinds; k++ {
		if ns := c.kindNS[k].Load(); ns > 0 {
			if st.KindUS == nil {
				st.KindUS = make(map[string]float64, nKinds)
			}
			st.KindUS[nn.Kind(k).String()] = float64(ns) / 1e3
		}
	}
	return st
}
