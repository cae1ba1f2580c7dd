package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/stats"
)

// Stats are cumulative serving counters and latency percentiles for
// one registered model.
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
	// in microseconds over a sliding window of recent requests.
	P50US, P95US, P99US float64
	// BatchHist counts formed batches by their sample count, so an
	// anomalous AvgBatch can be traced to its size distribution (e.g.
	// a bimodal mix of timer flushes and full batches).
	BatchHist map[int]int64
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

// merge accumulates other into s (histograms and kind times included),
// for the engine-wide aggregate view. Latency percentiles cannot be
// merged from percentiles; the caller recomputes them from the pooled
// windows.
func (s *Stats) merge(other Stats) {
	s.Requests += other.Requests
	s.Samples += other.Samples
	s.Batches += other.Batches
	s.Errors += other.Errors
	s.Rejected += other.Rejected
	s.Sheds += other.Sheds
	s.Splits += other.Splits
	for sz, n := range other.BatchHist {
		if s.BatchHist == nil {
			s.BatchHist = make(map[int]int64)
		}
		s.BatchHist[sz] += n
	}
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

// latencyWindow is the number of recent requests the latency
// percentiles cover.
const latencyWindow = 4096

// percentiles computes p50/p95/p99 over a pooled latency window.
func percentiles(lats []float64) (p50, p95, p99 float64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sample := stats.NewSample(len(lats))
	sample.AddAll(lats)
	return sample.Percentile(50), sample.Percentile(95), sample.Percentile(99)
}

// nKinds sizes the per-operator-kind accumulators.
const nKinds = int(nn.KindOther) + 1

// counters is the mutable serving-statistics state of one model queue:
// lock-free counters on the request path, a mutex-guarded latency ring
// and batch-size histogram off it.
type counters struct {
	requests atomic.Int64
	samples  atomic.Int64
	batches  atomic.Int64
	errs     atomic.Int64
	rejected atomic.Int64 // admission-validation refusals
	sheds    atomic.Int64 // deadline sheds (no forward pass run)
	splits   atomic.Int64 // oversized requests split across the pool

	// cuts counts formed batches by cut reason (formBatch).
	cuts [nCutReasons]atomic.Int64

	// kindNS accumulates instrumented forward-pass time per operator
	// kind, in nanoseconds. Executor workers add concurrently.
	kindNS [nKinds]atomic.Int64

	// latHist and batchHist are the fixed-bucket histograms behind the
	// /metrics exposition: cumulative (never reset), lock-free Observe,
	// machine-readable counterparts of the percentile window and the
	// exact BatchHist map below.
	latHist   *obs.Histogram // request latency, nanoseconds
	batchHist *obs.Histogram // formed-batch size, samples

	latMu  sync.Mutex
	latBuf []float64 // ring of recent request latencies (µs)
	latPos int
	latLen int

	histMu sync.Mutex
	hist   map[int]int64 // formed-batch sample count → occurrences
}

// init allocates the fixed-bucket histograms; called once per model
// queue at registration.
func (c *counters) init() {
	c.latHist = obs.NewHistogram(obs.LatencyBoundsNS)
	c.batchHist = obs.NewHistogram(obs.BatchBounds)
}

// OpSpan implements model.SpanObserver: per-operator time lands in the
// per-kind accumulators. The name is deliberately dropped — per-op
// detail belongs to internal/profile; serving stats track kinds.
func (c *counters) OpSpan(_ string, kind nn.Kind, d time.Duration) {
	c.kindNS[kind].Add(int64(d))
}

func (c *counters) recordLatency(d time.Duration) {
	c.latHist.Observe(int64(d))
	us := float64(d) / 1e3
	c.latMu.Lock()
	if c.latBuf == nil {
		c.latBuf = make([]float64, latencyWindow)
	}
	c.latBuf[c.latPos] = us
	c.latPos = (c.latPos + 1) % latencyWindow
	if c.latLen < latencyWindow {
		c.latLen++
	}
	c.latMu.Unlock()
}

func (c *counters) recordBatch(samples int) {
	c.batches.Add(1)
	c.samples.Add(int64(samples))
	c.batchHist.Observe(int64(samples))
	c.histMu.Lock()
	if c.hist == nil {
		c.hist = make(map[int]int64)
	}
	c.hist[samples]++
	c.histMu.Unlock()
}

// appendLatencies copies the current latency window into dst, for
// pooled percentile computation across models.
func (c *counters) appendLatencies(dst []float64) []float64 {
	c.latMu.Lock()
	dst = append(dst, c.latBuf[:c.latLen]...)
	c.latMu.Unlock()
	return dst
}

// snapshot returns a consistent-enough copy of the counters for
// reporting. Counters are read individually; the totals may straddle
// an in-flight request, which is fine for monitoring.
func (c *counters) snapshot() Stats {
	st := Stats{
		Requests: c.requests.Load(),
		Samples:  c.samples.Load(),
		Batches:  c.batches.Load(),
		Errors:   c.errs.Load(),
		Rejected: c.rejected.Load(),
		Sheds:    c.sheds.Load(),
		Splits:   c.splits.Load(),
	}
	c.latMu.Lock()
	if c.latLen > 0 {
		sample := stats.NewSample(c.latLen)
		sample.AddAll(c.latBuf[:c.latLen])
		st.P50US = sample.Percentile(50)
		st.P95US = sample.Percentile(95)
		st.P99US = sample.Percentile(99)
	}
	c.latMu.Unlock()
	c.histMu.Lock()
	if len(c.hist) > 0 {
		st.BatchHist = make(map[int]int64, len(c.hist))
		for sz, n := range c.hist {
			st.BatchHist[sz] = n
		}
	}
	c.histMu.Unlock()
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
