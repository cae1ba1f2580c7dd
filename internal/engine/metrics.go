package engine

import (
	"io"
	"sort"
	"strconv"

	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/shard"
)

// Prometheus text exposition of the engine's serving state
// (GET /metrics). The output is deterministic: families are written in
// the fixed order below and series within a family in model-name
// order, so a deterministic engine run produces byte-stable output
// modulo timing-derived values — the property the golden exposition
// test pins.
//
// Families (all per model unless noted):
//
//	recsys_engine_workers                 gauge   (engine-wide)
//	recsys_engine_models                  gauge   (engine-wide)
//	recsys_requests_total                 counter
//	recsys_samples_total                  counter
//	recsys_batches_total                  counter
//	recsys_errors_total                   counter
//	recsys_rejected_total                 counter
//	recsys_sheds_total                    counter
//	recsys_traces_total                   counter (only when tracing)
//	recsys_queue_depth                    gauge
//	recsys_queue_capacity                 gauge
//	recsys_model_weight                   gauge
//	recsys_model_generation               gauge
//	recsys_rank_latency_seconds           histogram
//	recsys_batch_size_samples             histogram
//	recsys_batch_cuts_total{model,reason} counter
//	recsys_op_seconds_total{model,kind}   counter
//	recsys_embcache_capacity_rows{model,table}    gauge   (only with EmbCache on and a remote tier)
//	recsys_embcache_hits_total{model,table}       counter (")
//	recsys_embcache_misses_total{model,table}     counter (")
//	recsys_embcache_evictions_total{model,table}  counter (")
//	recsys_embcache_hit_ratio{model,table}        gauge   (")
//	recsys_shard_requests_total{model,shard}      counter (only with a remote tier)
//	recsys_shard_hedges_total{model,shard}        counter (")
//	recsys_shard_hedge_wins_total{model,shard}    counter (")
//	recsys_shard_cancels_total{model,shard}       counter (")
//	recsys_shard_retries_total{model,shard}       counter (")
//	recsys_shard_errors_total{model,shard}        counter (")
//	recsys_shard_latency_seconds{model,shard}     histogram (")
//
// The request, sample and batch totals are the _count and _sum of the
// two histograms, read from the same snapshot as their buckets.
type metricsView struct {
	name       string
	mq         *modelQueue
	lat, batch obs.HistSnapshot
}

// metricsOrder snapshots the registered queues sorted by model name —
// exposition order must not depend on registration order or map
// iteration.
func (e *Engine) metricsOrder() []metricsView {
	e.mu.Lock()
	views := make([]metricsView, 0, len(e.order))
	for _, mq := range e.order {
		views = append(views, metricsView{name: mq.name, mq: mq})
	}
	e.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].name < views[j].name })
	for i := range views {
		views[i].lat = views[i].mq.latHist.Snapshot()
		views[i].batch = views[i].mq.batchHist.Snapshot()
	}
	return views
}

// WriteMetrics writes the Prometheus text exposition of every
// registered model's serving counters, histograms, and queue gauges.
func (e *Engine) WriteMetrics(w io.Writer) {
	views := e.metricsOrder()
	lbl := func(v metricsView) []obs.Label {
		return []obs.Label{{Name: "model", Value: v.name}}
	}

	obs.WriteFamily(w, "recsys_engine_workers", "gauge", "Forward passes that may run at once, shared by all models (executor tokens).")
	obs.WriteIntSample(w, "recsys_engine_workers", nil, int64(e.opts.Workers))
	obs.WriteFamily(w, "recsys_engine_models", "gauge", "Registered models.")
	obs.WriteIntSample(w, "recsys_engine_models", nil, int64(len(views)))

	counters := []struct {
		name string
		help string
		load func(metricsView) int64
	}{
		{"recsys_requests_total", "Rank calls completed successfully.", func(v metricsView) int64 { return v.lat.Count }},
		{"recsys_samples_total", "User-item pairs ranked.", func(v metricsView) int64 { return v.batch.Sum }},
		{"recsys_batches_total", "Coalesced forward passes executed.", func(v metricsView) int64 { return v.batch.Count }},
		{"recsys_errors_total", "Failed requests (bad input, shed, cancelled, or internal).", func(v metricsView) int64 { return v.mq.errs.Load() }},
		{"recsys_rejected_total", "Requests refused by admission-time validation.", func(v metricsView) int64 { return v.mq.rejected.Load() }},
		{"recsys_sheds_total", "Deadline sheds: requests dropped without a forward pass.", func(v metricsView) int64 { return v.mq.sheds.Load() }},
		{"recsys_splits_total", "Oversized requests split across the executor pool (Policy.SplitAbove).", func(v metricsView) int64 { return v.mq.splits.Load() }},
	}
	for _, c := range counters {
		obs.WriteFamily(w, c.name, "counter", c.help)
		for _, v := range views {
			obs.WriteIntSample(w, c.name, lbl(v), c.load(v))
		}
	}

	if e.opts.TraceRing > 0 {
		obs.WriteFamily(w, "recsys_traces_total", "counter", "Request traces recorded (Options.TraceRing).")
		for _, v := range views {
			if v.mq.ring != nil {
				obs.WriteIntSample(w, "recsys_traces_total", lbl(v), v.mq.ring.Added())
			}
		}
	}

	obs.WriteFamily(w, "recsys_queue_depth", "gauge", "Requests waiting in the admission queue.")
	for _, v := range views {
		obs.WriteIntSample(w, "recsys_queue_depth", lbl(v), int64(len(v.mq.q)))
	}
	obs.WriteFamily(w, "recsys_queue_capacity", "gauge", "Admission queue bound (Options.QueueDepth).")
	for _, v := range views {
		obs.WriteIntSample(w, "recsys_queue_capacity", lbl(v), int64(cap(v.mq.q)))
	}
	obs.WriteFamily(w, "recsys_model_weight", "gauge", "Executor weighted-fair pick weight.")
	for _, v := range views {
		obs.WriteIntSample(w, "recsys_model_weight", lbl(v), int64(v.mq.weight))
	}
	obs.WriteFamily(w, "recsys_model_generation", "gauge", "Model swap generation: 1 at registration, +1 per hot swap.")
	for _, v := range views {
		obs.WriteIntSample(w, "recsys_model_generation", lbl(v), int64(v.mq.published.Load().gen))
	}

	obs.WriteFamily(w, "recsys_rank_latency_seconds", "histogram", "End-to-end Rank latency.")
	for _, v := range views {
		obs.WriteHistogram(w, "recsys_rank_latency_seconds", lbl(v), v.lat, 1e9)
	}
	obs.WriteFamily(w, "recsys_batch_size_samples", "histogram", "Formed-batch size in samples.")
	for _, v := range views {
		obs.WriteHistogram(w, "recsys_batch_size_samples", lbl(v), v.batch, 1)
	}

	obs.WriteFamily(w, "recsys_batch_cuts_total", "counter", "Formed batches by why the former cut them: full, free executor, MaxWait under load, oldest deadline, drain.")
	for _, v := range views {
		for r := range v.mq.cuts {
			labels := append(lbl(v), obs.Label{Name: "reason", Value: cutReason(r).String()})
			obs.WriteIntSample(w, "recsys_batch_cuts_total", labels, v.mq.cuts[r].Load())
		}
	}

	obs.WriteFamily(w, "recsys_op_seconds_total", "counter", "Cumulative forward-pass time by operator kind.")
	for _, v := range views {
		for _, k := range nn.Kinds() {
			ns := v.mq.kindNS[k].Load()
			if ns == 0 {
				continue
			}
			labels := append(lbl(v), obs.Label{Name: "kind", Value: k.String()})
			obs.WriteSample(w, "recsys_op_seconds_total", labels, float64(ns)/1e9)
		}
	}

	writeEmbCacheMetrics(w, views, lbl)
	writeShardMetrics(w, views, lbl)

	e.mu.Lock()
	var extras []func(io.Writer)
	extras = append(extras, e.extraMetrics...)
	e.mu.Unlock()
	for _, f := range extras {
		f(w)
	}
}

// AddMetricsWriter appends a metrics contributor to the exposition:
// every GET /metrics (and WriteMetrics call) invokes f after the
// engine's own families. Components layered above the engine — the
// adaptive scheduling controller's recsys_sched_* families — publish
// through here, so one scrape endpoint covers the whole serving
// stack. Writers must emit deterministic, well-formed exposition text
// and must not block.
func (e *Engine) AddMetricsWriter(f func(io.Writer)) {
	e.mu.Lock()
	e.extraMetrics = append(e.extraMetrics, f)
	e.mu.Unlock()
}

// writeShardMetrics emits the remote-embedding-tier client counters,
// labelled {model, shard} with the shard's address — the hedging
// observability the tail-latency experiments read. Models without a
// remote tier contribute no series; with none at all, no shard family
// is written.
func writeShardMetrics(w io.Writer, views []metricsView, lbl func(metricsView) []obs.Label) {
	type clientStats struct {
		view  metricsView
		stats []shard.ShardStats
	}
	var cs []clientStats
	for _, v := range views {
		if v.mq.embClient != nil {
			cs = append(cs, clientStats{view: v, stats: v.mq.embClient.Stats()})
		}
	}
	if len(cs) == 0 {
		return
	}
	shardLbl := func(v metricsView, addr string) []obs.Label {
		return append(lbl(v), obs.Label{Name: "shard", Value: addr})
	}
	counters := []struct {
		name string
		help string
		load func(shard.ShardStats) int64
	}{
		{"recsys_shard_requests_total", "Embedding gather sub-requests sent to this shard.", func(s shard.ShardStats) int64 { return s.Requests }},
		{"recsys_shard_hedges_total", "Hedge attempts launched against this shard.", func(s shard.ShardStats) int64 { return s.Hedges }},
		{"recsys_shard_hedge_wins_total", "Hedge attempts that answered before the primary.", func(s shard.ShardStats) int64 { return s.HedgeWins }},
		{"recsys_shard_cancels_total", "In-flight attempts abandoned after a sibling won.", func(s shard.ShardStats) int64 { return s.Cancels }},
		{"recsys_shard_retries_total", "Fresh-connection retries after all attempts failed.", func(s shard.ShardStats) int64 { return s.Retries }},
		{"recsys_shard_errors_total", "Sub-requests that exhausted retries and failed.", func(s shard.ShardStats) int64 { return s.Errors }},
	}
	for _, c := range counters {
		obs.WriteFamily(w, c.name, "counter", c.help)
		for _, e := range cs {
			for _, s := range e.stats {
				obs.WriteIntSample(w, c.name, shardLbl(e.view, s.Addr), c.load(s))
			}
		}
	}
	obs.WriteFamily(w, "recsys_shard_latency_seconds", "histogram", "Per-shard gather sub-request latency (hedge-winner when hedged).")
	for _, e := range cs {
		for _, s := range e.stats {
			obs.WriteHistogram(w, "recsys_shard_latency_seconds", shardLbl(e.view, s.Addr), s.Latency, 1e9)
		}
	}
}

// writeEmbCacheMetrics emits the per-table embedding hot-row cache
// families, labelled {model, table} with the table's position index.
// Only a model gathering from a remote tier has caches; with none at
// all, no embcache family is written.
func writeEmbCacheMetrics(w io.Writer, views []metricsView, lbl func(metricsView) []obs.Label) {
	snaps := make([][]EmbCacheStats, len(views))
	cached := false
	for i, v := range views {
		snaps[i] = v.mq.embCacheStats()
		cached = cached || len(snaps[i]) > 0
	}
	if !cached {
		return
	}
	tableLbl := func(v metricsView, table int) []obs.Label {
		return append(lbl(v), obs.Label{Name: "table", Value: strconv.Itoa(table)})
	}
	emit := func(name, kind, help string, value func(EmbCacheStats) float64, integral bool) {
		obs.WriteFamily(w, name, kind, help)
		for i, v := range views {
			for _, ec := range snaps[i] {
				if integral {
					obs.WriteIntSample(w, name, tableLbl(v, ec.Table), int64(value(ec)))
				} else {
					obs.WriteSample(w, name, tableLbl(v, ec.Table), value(ec))
				}
			}
		}
	}
	emit("recsys_embcache_capacity_rows", "gauge", "Embedding hot-row cache capacity per table.",
		func(ec EmbCacheStats) float64 { return float64(ec.Capacity) }, true)
	emit("recsys_embcache_hits_total", "counter", "Embedding cache row hits.",
		func(ec EmbCacheStats) float64 { return float64(ec.Hits) }, true)
	emit("recsys_embcache_misses_total", "counter", "Embedding cache row misses.",
		func(ec EmbCacheStats) float64 { return float64(ec.Misses) }, true)
	emit("recsys_embcache_evictions_total", "counter", "Embedding cache rows evicted.",
		func(ec EmbCacheStats) float64 { return float64(ec.Evictions) }, true)
	emit("recsys_embcache_hit_ratio", "gauge", "Embedding cache hits / (hits + misses).",
		func(ec EmbCacheStats) float64 { return ec.HitRate }, false)
}
