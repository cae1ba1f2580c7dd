// Command loadgen drives the simulated inference tier with Poisson load
// and reports latency percentiles and SLA-bounded goodput — the
// latency-bounded-throughput methodology of §III.
//
// Usage:
//
//	loadgen -model rmc2 -machine Skylake -workers 8 -qps 2000 -sla 10ms
//	loadgen -real -model rmc1 -scale 500 -qps 2000 -requests 5000
//	loadgen -real -model rmc1 -zipf 1.1 -emb-shards :7601,:7602 -emb-cache 4096
//	loadgen -real -model rmc1 -arrival flash -peak-mult 4 -adapt -sla 5ms
//
// Both modes replay one arrival process (trace.LoadGenerator). Without
// -real its times are the virtual clock of the discrete-event simulator
// (internal/server). With -real, loadgen brings up the serving stack
// cmd/serve runs (stack.Start; DESIGN.md "Bring-up", which also has the
// -model spec grammar) and the open-loop driver the chaos scenarios use
// (scenario.Run) sleeps until each arrival and ranks it in-process:
// measured wall-clock latencies, formed-batch histogram, and
// per-operator time from the instrumented forward pass. DESIGN.md "One
// mechanism, two drivers" has the table.
//
// -arrival selects the arrival process (real mode): "poisson" (steady),
// "flash" (rate steps to -peak-mult× at -arrival-period and holds),
// "bursty" (square wave with period -arrival-period), or "diurnal"
// (sinusoid). The QPS-at-SLA methodology reads the goodput line —
// requests per second completed within -sla — which is what a batch
// policy is actually buying.
//
// -adapt (real mode) runs the adaptive scheduling controller against
// the engine while the load plays: the batch policy is re-tuned from
// the observed windowed p99 every -adapt-interval, and the controller's
// per-model summary prints at the end. Requires -sla.
//
// -zipf s (real mode) draws sparse IDs from a per-table Zipf(s)
// generator instead of uniform (0 keeps uniform) and reports the
// achieved unique-ID fraction — the locality axis of the paper's
// Fig. 14.
//
// -emb-shards a:9001,b:9001 (real mode) fans the engine's embedding
// gathers out to a remote cmd/embshard tier instead of the in-process
// tables; every shard must serve the same -model/-scale/-seed so the
// weights match. The output header stamps the kernel tier and the
// shard topology so saved runs are comparable. -emb-cache N puts the
// engine's hot-row cache in front of that tier and reports its hit
// rates, so with -zipf it sweeps cache effectiveness against traffic
// skew; without -emb-shards the rows are read in place, no cache is
// attached, and the report says so.
//
// -online (real mode) runs the continuous train→quantize→swap loop
// in-process while the load plays: served traffic is labeled by a
// synthetic teacher into a replay buffer, and every -online-interval a
// candidate is trained, snapshotted, and hot-swapped under the live
// load. The summary reports the generations published — a smoke test
// that swaps under traffic cost no requests.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"recsys/internal/arch"
	batching "recsys/internal/batch" // the batch flag below shadows the package name
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/obs"
	"recsys/internal/scenario"
	"recsys/internal/server"
	"recsys/internal/stack"
	"recsys/internal/stats"
	"recsys/internal/tensor"
	"recsys/internal/trace"
)

// realConfig carries the traffic loop's knobs into runReal; the stack
// it drives is a stack.Config.
type realConfig struct {
	batch    int
	qps      float64
	requests int
	sla      time.Duration
	zipfS    float64

	arrival       string
	peakMult      float64
	arrivalPeriod time.Duration
}

func main() {
	var (
		preset      = flag.String("model", "rmc1", model.SingleSpecUsage)
		machineName = flag.String("machine", "Broadwell", "Haswell, Broadwell, or Skylake")
		batch       = flag.Int("batch", 16, "batch size per request")
		workers     = flag.Int("workers", 4, "co-located model instances (thread pool size)")
		qps         = flag.Float64("qps", 1000, "offered load, requests/s")
		requests    = flag.Int("requests", 20000, "requests to simulate")
		sla         = flag.Duration("sla", 10*time.Millisecond, "latency SLA")
		seed        = flag.Uint64("seed", 1, "random seed")
		maxBatch    = flag.Int("max-batch", 0, "enable dynamic batching up to this many samples (0 = fixed batches)")
		maxWait     = flag.Duration("max-wait", 2*time.Millisecond, "longest a partial batch is held while every other worker is busy (never held while one is free)")
		real        = flag.Bool("real", false, "drive the real in-process engine instead of the simulator")
		scale       = flag.Int("scale", 100, "embedding-table shrink factor in -real mode")
		traceOn     = flag.Bool("trace", false, "in -real mode, trace requests and print the slowest request's per-stage breakdown")
		zipfS       = flag.Float64("zipf", 0, "in -real mode, draw sparse IDs from a per-table Zipf(s) generator (0 = uniform)")
		embCache    = flag.Int("emb-cache", 0, "with -emb-shards, hot embedding rows cached per table in front of the shard tier (0 = off; ignored without -emb-shards)")
		embShards   = flag.String("emb-shards", "", "in -real mode, comma-separated cmd/embshard addresses to fan embedding gathers out to (shards must serve the same -model/-scale/-seed)")

		arrival       = flag.String("arrival", "poisson", "in -real mode, arrival process: poisson, flash, bursty, or diurnal")
		peakMult      = flag.Float64("peak-mult", 4, "peak rate multiplier for flash/bursty/diurnal arrivals")
		arrivalPeriod = flag.Duration("arrival-period", 2*time.Second, "flash switch time, or bursty/diurnal period")
		adaptOn       = flag.Bool("adapt", false, "in -real mode, run the adaptive scheduling controller against -sla while the load plays")
		adaptInterval = flag.Duration("adapt-interval", 200*time.Millisecond, "adaptive controller tick period")

		onlineOn       = flag.Bool("online", false, "in -real mode, run the continuous train→quantize→swap loop under the load")
		onlineInterval = flag.Duration("online-interval", 250*time.Millisecond, "online update cycle period")
	)
	flag.Parse()

	// Offered load and volume must be actual loads and volumes: a zero
	// or negative rate stalls the arrival process forever and a
	// non-positive request count measures nothing — refuse them up
	// front instead of hanging or printing NaN percentiles.
	if *qps <= 0 {
		fatal(fmt.Sprintf("-qps must be positive, got %g", *qps))
	}
	if *requests <= 0 {
		fatal(fmt.Sprintf("-requests must be positive, got %d", *requests))
	}

	spec, err := model.ParseSingleSpec(*preset, *scale)
	if err != nil {
		fatal(err)
	}
	if *real {
		sc := stack.Config{
			Models:        []model.Spec{spec},
			Seed:          *seed,
			Workers:       *workers,
			MaxBatch:      *maxBatch,
			MaxWait:       *maxWait,
			EmbCache:      engine.EmbCacheOptions{RowsPerTable: *embCache},
			EmbShards:     *embShards,
			Adapt:         *adaptOn,
			AdaptInterval: *adaptInterval,
			// No held-out gate: the smoke run asserts that swaps land
			// cleanly under traffic, not training quality.
			Online:         *onlineOn,
			OnlineInterval: *onlineInterval,
			OnlineSteps:    4,
			OnlineBatch:    16,
			OnlineLR:       0.02,
			OnlineBuffer:   1 << 14,
		}
		if *adaptOn {
			// -sla is always set here (it bounds goodput); only -adapt
			// hands it to a controller.
			sc.SLA = *sla
		}
		if *traceOn {
			sc.TraceRing = 16
		}
		runReal(sc, realConfig{
			batch: *batch, qps: *qps, requests: *requests, sla: *sla, zipfS: *zipfS,
			arrival: *arrival, peakMult: *peakMult, arrivalPeriod: *arrivalPeriod,
		})
		return
	}
	cfg := spec.Preset
	if *traceOn {
		fatal("-trace requires -real (the simulator has no request traces)")
	}
	if spec.Int8Tables || *zipfS != 0 || *embCache != 0 || *embShards != "" {
		fatal("-int8 presets, -zipf, -emb-cache, and -emb-shards require -real (the simulator has no embedding rows)")
	}
	if *arrival != "poisson" || *adaptOn {
		fatal("-arrival and -adapt require -real (the simulator is steady-state Poisson only)")
	}
	if *onlineOn {
		fatal("-online requires -real (the simulator has no trainable weights)")
	}

	m, err := arch.ByName(*machineName)
	if err != nil {
		fatal(err)
	}

	sc := server.SimConfig{
		Model:    cfg,
		Machine:  m,
		Batch:    *batch,
		Workers:  *workers,
		QPS:      *qps,
		Requests: *requests,
		SLAUS:    float64(sla.Microseconds()),
		Seed:     *seed,
	}
	var res server.Result
	if *maxBatch > 0 {
		res = server.SimulateBatched(server.BatcherConfig{
			SimConfig: sc,
			Policy:    batching.Policy{MaxBatch: *maxBatch, MaxWait: *maxWait},
		})
		fmt.Printf("%s on %s  dynamic batching (<=%d, wait<=%v) workers=%d offered=%.0f QPS  SLA=%v\n\n",
			cfg.Name, m.Name, *maxBatch, *maxWait, *workers, *qps, *sla)
	} else {
		res = server.Simulate(sc)
		fmt.Printf("%s on %s  batch=%d workers=%d offered=%.0f QPS  SLA=%v\n\n", cfg.Name, m.Name, *batch, *workers, *qps, *sla)
	}
	report(res.Latencies, 1, res.SLAViolations)
	fmt.Printf("throughput:     %.0f req/s (%.0f items/s)\n", res.ThroughputQPS, res.ThroughputQPS*float64(*batch))
	fmt.Printf("goodput:        %.0f req/s within SLA\n", res.GoodputQPS())
}

// fatal reports a usage or bring-up error and exits.
func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"loadgen:"}, args...)...)
	os.Exit(1)
}

// report prints the latency block both modes share. usPer converts the
// sample's unit to microseconds.
func report(lat *stats.Sample, usPer float64, violations int) {
	s := lat.Summarize()
	fmt.Printf("requests:       %d\n", lat.Len())
	fmt.Printf("latency mean:   %.1fµs\n", s.Mean*usPer)
	fmt.Printf("latency p50:    %.1fµs\n", s.P50*usPer)
	fmt.Printf("latency p95:    %.1fµs\n", s.P95*usPer)
	fmt.Printf("latency p99:    %.1fµs\n", s.P99*usPer)
	fmt.Printf("SLA violations: %d (%.2f%%)\n", violations, 100*float64(violations)/float64(lat.Len()))
}

// runReal brings the stack up, has scenario.Run drive its engine with
// the configured arrival process and reports measured latency, SLA
// goodput, the formed-batch histogram, and the per-operator time split
// from the instrumented forward pass. With -adapt the scheduling
// controller re-tunes the batch policy live while the load plays; with
// -online the train→quantize→swap loop hot-swaps candidates under it.
func runReal(sc stack.Config, rc realConfig) {
	stk, err := stack.Start(sc)
	if err != nil {
		fatal(err)
	}
	eng := stk.Engine
	cfg := sc.Models[0].Config()
	// The traffic streams continue the seed's RNG past the split the
	// model's weights took (model.BuildSpecs).
	rng := stats.NewRNG(sc.Seed)
	rng.Split()
	// shardCount is stamped into the output header alongside the kernel
	// tier: "local" for in-process tables, the shard count when gathers
	// fan out to a remote tier (the full topology prints below it).
	shardCount := "local"
	if stk.Shards != nil {
		shardCount = fmt.Sprintf("%d", stk.Shards.NumShards())
	}
	// Per-table sparse-ID generators (Zipf skew or uniform) plus unique
	// tracking, so the achieved unique-ID fraction of the offered
	// traffic is reported alongside the latency numbers.
	idGens := make([]trace.IDGenerator, len(cfg.Tables))
	seen := make([]map[int]struct{}, len(cfg.Tables))
	for i, tb := range cfg.Tables {
		if rc.zipfS == 0 {
			idGens[i] = trace.NewUniform(tb.Rows, rng.Split())
		} else {
			idGens[i] = trace.NewZipfian(tb.Rows, rc.zipfS, rng.Split())
		}
		seen[i] = make(map[int]struct{})
	}
	drawn := 0

	fmt.Printf("%s real engine  batch=%d workers=%d offered=%.0f QPS (%s)  coalesce<=%d wait<=%v  SLA=%v  ids=%s kernel=%s shards=%s adapt=%v\n",
		cfg.Name, rc.batch, sc.Workers, rc.qps, rc.arrival, max(sc.MaxBatch, 1), sc.MaxWait, rc.sla, idGens[0].Name(), tensor.KernelTier(), shardCount, sc.Adapt)
	if stk.Shards != nil {
		fmt.Printf("embedding tier: %s\n", stk.Shards.Topology())
	}
	fmt.Println()
	gen, err := trace.NewArrivalSource(rc.arrival, rc.qps, rc.peakMult, rc.arrivalPeriod, rc.batch, rng.Split())
	if err != nil {
		fatal(err)
	}
	res, err := scenario.Run(scenario.Config{
		Engine: eng,
		// Requests draw from the seed's own stream (rng), not the
		// driver's: one -seed names the weights and the traffic.
		NewRequest: func(*stats.RNG) model.Request {
			req := model.NewRandomRequest(cfg, rc.batch, rng)
			for t := range idGens {
				idGens[t].Fill(req.SparseIDs[t])
				for _, id := range req.SparseIDs[t] {
					seen[t][id] = struct{}{}
				}
				drawn += len(req.SparseIDs[t])
			}
			return req
		},
		Arrivals: gen,
		Requests: rc.requests,
		SLA:      rc.sla,
		// Nothing here replays samples against a reference model; keep
		// only the first instead of every 16th request body.
		SampleEvery: rc.requests,
	})
	if err != nil {
		fatal(err)
	}
	// Counters and traces outlive Close: the summaries below read a
	// stack that has stopped moving.
	stk.Close()
	if n := res.Failed + res.Shed; n > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d of %d requests failed (first errors: %v)\n", n, res.Sent, res.Errors)
	}

	report(res.Latencies, 1e-3, res.OK-res.WithinSLA)
	fmt.Printf("throughput:     %.0f req/s\n", float64(res.OK)/res.Wall.Seconds())
	fmt.Printf("goodput:        %.0f req/s within SLA\n", float64(res.WithinSLA)/res.Wall.Seconds())
	if stk.Controller != nil {
		fmt.Println()
		fmt.Println(stk.Controller.String())
	}
	if stk.Updater != nil {
		ost := stk.Updater.Stats()
		fmt.Printf("\nonline updater: gen=%d swaps=%d rollbacks=%d steps=%d examples=%d labeled=%d\n",
			ost.Generation, ost.Swaps, ost.Rollbacks, ost.Steps, ost.Examples, stk.Clicks.Fed())
	}

	st, _ := eng.ModelStats(engine.DefaultModelName) // Start registered it
	fmt.Printf("\nformed batches: %d (avg %.1f samples); cut because full %d, executor free %d, MaxWait %d, deadline %d, drain %d\n",
		st.Batches, st.AvgBatch(), st.Cuts["full"], st.Cuts["free"], st.Cuts["wait"], st.Cuts["deadline"], st.Cuts["drain"])
	// BatchHist is keyed by bucket bound ("1" … "256", "+Inf"); print
	// the buckets in bound order.
	les := make([]string, 0, len(st.BatchHist))
	for le := range st.BatchHist {
		les = append(les, le)
	}
	bound := func(le string) float64 { f, _ := strconv.ParseFloat(le, 64); return f }
	sort.Slice(les, func(i, j int) bool { return bound(les[i]) < bound(les[j]) })
	for _, le := range les {
		fmt.Printf("  batch ≤ %4s: %d\n", le, st.BatchHist[le])
	}
	if len(st.KindUS) > 0 {
		fmt.Println("\noperator time:")
		kinds := make([]string, 0, len(st.KindUS))
		var total float64
		for k, us := range st.KindUS {
			kinds = append(kinds, k)
			total += us
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Printf("  %-18s %10.0fµs  (%.1f%%)\n", k, st.KindUS[k], 100*st.KindUS[k]/total)
		}
	}

	uniq := 0
	for t := range seen {
		uniq += len(seen[t])
	}
	fmt.Printf("\nsparse IDs (%s): achieved unique-ID fraction %.1f%% (%d unique of %d drawn across %d tables)\n",
		idGens[0].Name(), 100*float64(uniq)/float64(drawn), uniq, drawn, len(seen))
	if len(st.EmbCache) > 0 {
		fmt.Println("embedding hot-row cache:")
		for _, ec := range st.EmbCache {
			fmt.Printf("  table %d: cap %5d rows  hit rate %5.1f%%  (%d hits, %d misses, %d evictions)\n",
				ec.Table, ec.Capacity, 100*ec.HitRate, ec.Hits, ec.Misses, ec.Evictions)
		}
	} else if sc.EmbCache.Enabled() {
		fmt.Printf("-emb-cache %d ignored: the row cache fronts -emb-shards only; in-process rows are read in place\n", sc.EmbCache.RowsPerTable)
	}
	if stk.Shards != nil {
		fmt.Println("embedding shard tier:")
		for _, ss := range stk.Shards.Stats() {
			fmt.Printf("  %s: %d requests, %d hedges (%d wins), %d retries, %d errors\n",
				ss.Addr, ss.Requests, ss.Hedges, ss.HedgeWins, ss.Retries, ss.Errors)
		}
	}
	if sc.TraceRing > 0 {
		d, _ := eng.Traces(engine.DefaultModelName) // Start registered it
		printSlowest(d)
	}
}

// printSlowest reports where the slowest retained request's latency
// went, stage by stage — the live per-request analogue of the paper's
// Fig. 13 tail-latency breakdown. The stage sum is printed against the
// end-to-end time as a self-check that the stages tile the request.
func printSlowest(d obs.Dump) {
	if !d.Enabled || len(d.Slowest) == 0 {
		return
	}
	tr := d.Slowest[0]
	fmt.Printf("\nslowest request: %.1fµs end-to-end (batch=%d, ran in a %d-sample coalesced pass)\n",
		tr.TotalUS, tr.Batch, tr.BatchSamples)
	stages := []struct {
		name string
		us   float64
	}{
		{"validate", tr.ValidateUS},
		{"queue wait", tr.QueueWaitUS},
		{"batch form", tr.BatchFormUS},
		{"execute", tr.ExecuteUS},
	}
	for _, s := range stages {
		fmt.Printf("  %-11s %10.1fµs  (%.1f%%)\n", s.name, s.us, 100*s.us/tr.TotalUS)
	}
	if tr.BatchCut != "" {
		fmt.Printf("  %-11s %s\n", "batch cut", tr.BatchCut)
	}
	sum := tr.StageSumUS()
	fmt.Printf("  %-11s %10.1fµs  (%.1f%% of end-to-end)\n", "stage sum", sum, 100*sum/tr.TotalUS)
	// HTTP ingest ends before admission, so it stands beside the stages;
	// requests ranked in process, as -real makes them, have no body.
	fmt.Printf("  %-11s %10.1fµs  (%d-byte body; before admission, outside end-to-end)\n", "decode", tr.DecodeUS, tr.BodyBytes)
	if len(tr.Ops) > 0 {
		fmt.Println("  execute operator spans:")
		for _, op := range tr.Ops {
			fmt.Printf("    %-18s %-11s %9.1fµs\n", op.Name, op.Kind, op.US)
		}
	}
}
