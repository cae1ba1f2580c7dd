package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"recsys/internal/obs"
)

// traceRing is the -trace value of the traced server: its 512 most
// recent request traces give the stage medians.
const traceRing = 512

// runTraced produces one workload's per-layer metrics from outside the
// program under test: an untraced server for the counters and the
// process accounting, the in-process ladder, and a second server
// started with -trace for the stage times. The difference between the
// two servers' open-loop medians is the cost of tracing.
func runTraced(root, binDir string, w workload, seed uint64, seconds int) (*result, error) {
	in, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	// Two servers have to be warmed, so the timed phases are shorter than
	// the end-to-end run's: they yield medians and ratios, not bounds.
	satDur := time.Duration(max(seconds/6, 1)) * time.Second
	openDur := time.Duration(max(seconds/4, 1)) * time.Second
	arrivals := genArrivals(seed, w.rate, openDur)
	res := &result{values: map[string]float64{}}
	count := func(name string, st phaseStats) {
		res.attempted += st.attempted
		res.failed += st.attempted - st.ok
		res.notes = append(res.notes, phaseLine(name, st))
	}

	// Untraced server: process accounting under saturation, counter
	// deltas over the open loop, and the ladder's shard rung.
	s, err := startStack(binDir, w, 0)
	if err != nil {
		return nil, err
	}
	r := newRanker(s.url, clientConns, in.pool, w.items, in.gemmK)
	defer r.close()
	warm, _, err := warmUp(s, r, w)
	if err != nil {
		return nil, err
	}
	count("warm-up", warm)

	serveBefore, err := sampleProcs([]*child{s.serve})
	if err != nil {
		return nil, err
	}
	shardsBefore, err := sampleProcs(s.shards)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPU()
	sat := summarize(closedLoop(w.conns, satDur, r.send), w.sla)
	selfAfter := selfCPU()
	serveAfter, err := sampleProcs([]*child{s.serve})
	if err != nil {
		return nil, errors.Join(err, s.alive())
	}
	shardsAfter, err := sampleProcs(s.shards)
	if err != nil {
		return nil, errors.Join(err, s.alive())
	}
	count("sat", sat)
	capacity := float64(satDur) * float64(runtime.NumCPU()) // CPU time the host had to give
	res.values["proc.serve_busy_frac"] = float64(serveAfter.cpu-serveBefore.cpu) / capacity
	res.values["proc.client_busy_frac"] = float64(selfAfter-selfBefore) / capacity
	res.values["proc.ctxsw_per_req"] = float64(serveAfter.ctxsw-serveBefore.ctxsw) / float64(max(sat.ok, 1))
	if w.shards > 0 {
		res.values["proc.embshard_cpu_ms_per_item"] = float64(shardsAfter.cpu-shardsBefore.cpu) / 1e6 / float64(max(sat.ok*w.items, 1))
	}

	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	open := summarize(openLoop(clientConns, arrivals, r.send), w.sla)
	after, err := s.scrape()
	if err != nil {
		return nil, errors.Join(err, s.alive())
	}
	count("open", open)
	res.values["gen.lag_p99_ms"] = open.lagP99MS
	res.values["open.p95_ms"] = percentile(open.latenciesMS, tailPct)
	ranked := promDelta(before, after, "recsys_requests_total")
	if w.embCache > 0 {
		hits := promDelta(before, after, "recsys_embcache_hits_total")
		misses := promDelta(before, after, "recsys_embcache_misses_total")
		res.values["embcache.hit_ratio"] = hits / max(hits+misses, 1)
		res.values["embcache.evictions_per_item"] = promDelta(before, after, "recsys_embcache_evictions_total") /
			max(promDelta(before, after, "recsys_samples_total"), 1)
	}
	if w.shards > 0 {
		rpcs := promDelta(before, after, "recsys_shard_requests_total")
		hedges := promDelta(before, after, "recsys_shard_hedges_total")
		res.values["shard.rpcs_per_rank"] = rpcs / max(ranked, 1)
		res.values["shard.rpc_p50_us"] = histQuantile(before, after, "recsys_shard_latency_seconds", 0.5) * 1e6
		res.values["shard.hedge_frac"] = hedges / max(rpcs, 1)
		res.values["shard.hedge_win_frac"] = promDelta(before, after, "recsys_shard_hedge_wins_total") / max(hedges, 1)
		res.values["shard.retries"] = promDelta(before, after, "recsys_shard_retries_total")
		res.values["shard.errors"] = promDelta(before, after, "recsys_shard_errors_total")
	}

	ladder, rec, err := runLadder(w, in, s.addrs)
	if err != nil {
		return nil, errors.Join(err, s.alive())
	}
	for k, v := range ladder {
		res.values[k] = v
	}
	path, err := writeSpans(root, w, seed, rec)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(rec.spans), path))
	if err := s.stop(false); err != nil {
		return nil, err
	}

	// Traced server: the same open loop, then the stage times.
	s, err = startStack(binDir, w, traceRing)
	if err != nil {
		return nil, err
	}
	rt := newRanker(s.url, clientConns, in.pool, w.items, in.gemmK)
	defer rt.close()
	if warm, _, err = warmUp(s, rt, w); err != nil {
		return nil, err
	}
	count("traced warm-up", warm)
	traced := summarize(openLoop(clientConns, arrivals, rt.send), w.sla)
	count("traced open", traced)
	res.firstErr = errors.Join(r.firstErr, rt.firstErr)

	var dump obs.Dump
	if err := s.getJSON("/trace/default", &dump); err != nil {
		return nil, errors.Join(err, s.alive())
	}
	var st struct {
		AvgBatch float64 `json:"avg_batch"`
		Sheds    float64 `json:"sheds"`
		Rejected float64 `json:"rejected"`
		Errors   float64 `json:"errors"`
	}
	if err := s.getJSON("/stats", &st); err != nil {
		return nil, errors.Join(err, s.alive())
	}
	if err := s.stop(false); err != nil {
		return nil, err
	}
	if len(dump.Recent) == 0 {
		return nil, errors.New("bench: the traced server retained no traces")
	}
	stage := func(f func(*obs.Trace) float64) float64 {
		v := make([]float64, len(dump.Recent))
		for i, t := range dump.Recent {
			v[i] = f(t)
		}
		return median(v)
	}
	totalUS := stage(func(t *obs.Trace) float64 { return t.TotalUS })
	res.values["batch.avg_samples"] = st.AvgBatch
	res.values["batch.form_wait_us"] = stage(func(t *obs.Trace) float64 { return t.BatchFormUS })
	res.values["engine.queue_wait_us"] = stage(func(t *obs.Trace) float64 { return t.QueueWaitUS })
	res.values["engine.execute_us"] = stage(func(t *obs.Trace) float64 { return t.ExecuteUS })
	res.values["engine.total_us"] = totalUS
	res.values["engine.sheds"] = st.Sheds
	res.values["engine.rejected"] = st.Rejected
	res.values["engine.errors"] = st.Errors
	tracedP50, openP50 := percentile(traced.latenciesMS, 50), percentile(open.latenciesMS, 50)
	res.values["http.self_us"] = tracedP50*1e3 - totalUS
	res.values["obs.trace_overhead_frac"] = (tracedP50 - openP50) / openP50
	res.notes = append(res.notes, fmt.Sprintf("traces: %d recent of %d recorded", len(dump.Recent), dump.Added))
	return res, nil
}

func (s *stack) scrape() (promSamples, error) {
	text, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(text), nil
}

func (s *stack) getJSON(path string, v any) error {
	text, err := s.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(text), v); err != nil {
		return fmt.Errorf("bench: decoding %s: %w", path, err)
	}
	return nil
}
