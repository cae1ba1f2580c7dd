// Benchmark harness: one testing.B per table and figure of the paper,
// plus ablations of the design decisions called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment end-to-end and reports the
// experiment's headline quantity as a custom metric, so `go test
// -bench` output doubles as a reproduction summary (EXPERIMENTS.md
// records the paper-vs-measured comparison).
package recsys_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"recsys/internal/arch"
	"recsys/internal/embcache"
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/perf"
	"recsys/internal/repro"
	"recsys/internal/sched"
	"recsys/internal/server"
	"recsys/internal/stats"
	"recsys/internal/tensor"
	"recsys/internal/trace"
	"recsys/internal/train"
)

// trainNewTrainer isolates the train import for the training bench.
func trainNewTrainer(m *model.Model) *train.Trainer {
	return train.NewTrainer(m, 0.01)
}

func BenchmarkFig01FleetCycles(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		share = repro.Figure1().TopRMCShare
	}
	b.ReportMetric(share*100, "rmc-cycle-%")
}

func BenchmarkFig02ComputeMemory(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(repro.Figure2().Points)
	}
	b.ReportMetric(float64(n), "workloads")
}

func BenchmarkFig04OperatorCycles(b *testing.B) {
	var sls float64
	for i := 0; i < b.N; i++ {
		sls = repro.Figure4().Total(nn.KindSLS)
	}
	b.ReportMetric(sls*100, "sls-cycle-%")
}

func BenchmarkFig05OpIntensity(b *testing.B) {
	var slsMPKI float64
	for i := 0; i < b.N; i++ {
		rows := repro.Figure5(uint64(i) + 1)
		slsMPKI = rows[0].MPKI
	}
	b.ReportMetric(slsMPKI, "sls-mpki")
}

func BenchmarkFig07UnitLatency(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows := repro.Figure7()
		spread = rows[2].LatencyUS / rows[0].LatencyUS
	}
	b.ReportMetric(spread, "rmc3/rmc1-latency")
}

func BenchmarkFig08BatchSweep(b *testing.B) {
	var cells int
	for i := 0; i < b.N; i++ {
		cells = len(repro.Figure8())
	}
	b.ReportMetric(float64(cells), "cells")
}

func BenchmarkFig09Colocation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, r := range repro.Figure9() {
			if r.Tenants == 8 && r.Normalized > worst {
				worst = r.Normalized
			}
		}
	}
	b.ReportMetric(worst, "worst-8tenant-slowdown")
}

func BenchmarkFig10LatencyThroughput(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		pts = len(repro.Figure10())
	}
	b.ReportMetric(float64(pts), "points")
}

func BenchmarkFig11TailLatency(b *testing.B) {
	var p99Ratio float64
	for i := 0; i < b.N; i++ {
		r := repro.Figure11(512, 512, uint64(i)+1)
		last := r.CurveBDW[len(r.CurveBDW)-1]
		p99Ratio = last.P99 / last.Mean
	}
	b.ReportMetric(p99Ratio, "bdw-p99/mean@40jobs")
}

func BenchmarkFig12NCFComparison(b *testing.B) {
	var latRatio float64
	for i := 0; i < b.N; i++ {
		rows := repro.Figure12()
		latRatio = rows[1].Latency // RMC2 vs NCF
	}
	b.ReportMetric(latRatio, "rmc2/ncf-latency")
}

func BenchmarkFig14TraceLocality(b *testing.B) {
	var minUnique float64
	for i := 0; i < b.N; i++ {
		minUnique = 1
		for _, r := range repro.Figure14(uint64(i) + 1) {
			if r.UniqueFraction < minUnique {
				minUnique = r.UniqueFraction
			}
		}
	}
	b.ReportMetric(minUnique*100, "min-unique-%")
}

func BenchmarkTableIParams(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(repro.TableI())
	}
	b.ReportMetric(float64(rows), "classes")
}

func BenchmarkTableIIIBottlenecks(b *testing.B) {
	var computeSens float64
	for i := 0; i < b.N; i++ {
		rows := repro.TableIII()
		computeSens = rows[2].ComputeSensitivity // RMC3
	}
	b.ReportMetric(computeSens, "rmc3-2x-compute-speedup")
}

// --- Ablations of DESIGN.md decisions ---

// BenchmarkAblationCacheModel compares the analytic SLS memory time
// against the cache-simulator-derived miss rate: the ratio of simulated
// LLC misses per lookup to the analytic assumption (2 lines per gather)
// should be ~1, validating decision 2.
func BenchmarkAblationCacheModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := repro.Figure5(uint64(i) + 1)
		// SLS row: MPKI × instructions/lookup ÷ 1000 = misses/lookup.
		// Instruction model: 32×5+50+2 per lookup (see fig05.go).
		missesPerLookup := rows[0].MPKI * (32*5 + 52) / 1000
		ratio = missesPerLookup / 2.0
	}
	b.ReportMetric(ratio, "sim/analytic-misses")
}

// BenchmarkAblationInclusiveSKL forces an inclusive LLC onto Skylake:
// its co-location FC degradation should then approach Broadwell's,
// isolating inclusivity as the mechanism behind Figures 9-11
// (decision 3).
func BenchmarkAblationInclusiveSKL(b *testing.B) {
	degrade := func(m arch.Machine) float64 {
		cfg := model.RMC2Small()
		solo := perf.Estimate(cfg, perf.Context{Machine: m, Batch: 32, Tenants: 1})
		co := perf.Estimate(cfg, perf.Context{Machine: m, Batch: 32, Tenants: 8})
		return co.ByKind()[nn.KindFC] / solo.ByKind()[nn.KindFC]
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		skl := arch.Skylake()
		inclusiveSKL := skl
		inclusiveSKL.L3Inclusive = true
		gap = degrade(inclusiveSKL) / degrade(skl)
	}
	b.ReportMetric(gap, "inclusive-fc-penalty-x")
}

// BenchmarkAblationFlatSIMD replaces the batch-dependent AVX-512
// utilization curve with a flat one: Skylake would then (incorrectly)
// win at batch 16, demonstrating why the curve is load-bearing
// (decision 4).
func BenchmarkAblationFlatSIMD(b *testing.B) {
	var flipped float64
	for i := 0; i < b.N; i++ {
		skl := arch.Skylake()
		flat := skl
		flat.SIMDUtil = arch.UtilCurve{Points: []arch.UtilPoint{{Batch: 1, Util: 0.60}}}
		cfg := model.RMC3Small()
		bdw := perf.Estimate(cfg, perf.NewContext(arch.Broadwell(), 16)).TotalUS
		real := perf.Estimate(cfg, perf.NewContext(skl, 16)).TotalUS
		fake := perf.Estimate(cfg, perf.NewContext(flat, 16)).TotalUS
		flipped = 0
		if real > bdw && fake < bdw {
			flipped = 1 // curve removal flips the batch-16 winner
		}
	}
	b.ReportMetric(flipped, "winner-flips")
}

// BenchmarkAblationHyperthreading quantifies §VI: p99-relevant FC
// slowdown when packing two tenants per core.
func BenchmarkAblationHyperthreading(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		m := arch.Broadwell()
		cfg := model.RMC3Small()
		base := perf.Estimate(cfg, perf.Context{Machine: m, Batch: 32, Tenants: 14}).TotalUS
		ht := perf.Estimate(cfg, perf.Context{Machine: m, Batch: 32, Tenants: 14, Hyperthread: true}).TotalUS
		slowdown = ht / base
	}
	b.ReportMetric(slowdown, "ht-slowdown")
}

// --- Extension experiments (ext-* in cmd/reproduce) ---

func BenchmarkExtEmbeddingCache(b *testing.B) {
	var bestHit float64
	for i := 0; i < b.N; i++ {
		for _, r := range repro.ExtEmbCache(uint64(i) + 1) {
			if r.HitRate > bestHit {
				bestHit = r.HitRate
			}
		}
	}
	b.ReportMetric(bestHit, "best-hit-rate")
}

func BenchmarkExtQuantization(b *testing.B) {
	var rmc2Speedup float64
	for i := 0; i < b.N; i++ {
		rows := repro.ExtQuant()
		rmc2Speedup = rows[1].Speedup
	}
	b.ReportMetric(rmc2Speedup, "rmc2-int8-speedup")
}

func BenchmarkExtSharding(b *testing.B) {
	var speedup8 float64
	for i := 0; i < b.N; i++ {
		for _, r := range repro.ExtShard() {
			if r.Shards == 8 {
				speedup8 = r.Speedup
			}
		}
	}
	b.ReportMetric(speedup8, "8-shard-speedup")
}

func BenchmarkExtDynamicBatching(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows := repro.ExtBatching(uint64(i) + 1)
		gain = rows[2].GoodputQPS / rows[0].GoodputQPS
	}
	b.ReportMetric(gain, "goodput-gain")
}

func BenchmarkExtTraining(b *testing.B) {
	var auc float64
	for i := 0; i < b.N; i++ {
		points := repro.ExtTrain(uint64(i) + 5)
		auc = points[len(points)-1].AUC
	}
	b.ReportMetric(auc, "final-auc")
}

// --- End-to-end engine benchmarks (real numerics, not the simulator) ---

// benchmarkForward times the serial arena-free pass CTR makes: every
// activation freshly allocated.
func benchmarkForward(b *testing.B, cfg model.Config, batch int) {
	m, err := model.Build(cfg, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	req := model.NewRandomRequest(cfg, batch, stats.NewRNG(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardEx(req, nil, 1)
	}
}

// --- Hot-path benchmarks: packed GEMM, check-free SLS, arena ---
//
// Each kernel appears twice: the serial reference ("Serial") and the
// optimized hot path ("Hot"/"Parallel"), so `go test -bench` output is
// a before/after table. EXPERIMENTS.md records the measured ratios.
//
// A gated hot path is written as a setup that returns its op, one
// iteration with every buffer warm: the benchmark times op b.N times,
// and TestBenchRegression times the same op in slices beside a
// reference kernel (bench_regress_test.go). Setups register teardown
// with tb.Cleanup.

// runOp times op, one iteration of a prepared hot path, b.N times.
func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkGemmSerialBatch64(b *testing.B) { benchmarkGemm(b, false) }
func BenchmarkGemmHotBatch64(b *testing.B)    { benchmarkGemm(b, true) }

// benchmarkGemm times a batch-64 Top-FC-shaped GEMM (64×512×512), the
// compute-bound operator class of the paper's Figure 4.
func benchmarkGemm(b *testing.B, hot bool) { runOp(b, gemmOp(hot)) }

func gemmOp(hot bool) func() {
	r := stats.NewRNG(1)
	x := tensor.New(64, 512)
	w := tensor.New(512, 512)
	for _, t := range []*tensor.Tensor{x, w} {
		d := t.Data()
		for i := range d {
			d[i] = float32(r.NormFloat64())
		}
	}
	pb := tensor.PackB(w)
	c := tensor.New(64, 512)
	return func() {
		c.Fill(0)
		if hot {
			tensor.ParallelGemmPacked(x, pb, c, 0)
		} else {
			tensor.Gemm(x, w, c)
		}
	}
}

func BenchmarkSLSSerialBatch64(b *testing.B)   { benchmarkSLS(b, 1) }
func BenchmarkSLSParallelBatch64(b *testing.B) { benchmarkSLS(b, 0) }

// benchmarkSLS times a batch-64, 80-lookup gather over a 100k×64
// table — the memory-bound irregular operator of Figure 5.
func benchmarkSLS(b *testing.B, workers int) {
	op, _ := slsOp(workers)
	runOp(b, op)
}

// slsOp returns the gather op and the rows it reads.
func slsOp(workers int) (func(), tableRows) {
	rng := stats.NewRNG(3)
	table := nn.NewEmbeddingTable("bench", 100_000, 64, rng)
	op := nn.NewSLSOp(table, 80)
	const batch = 64
	ids := make([]int, batch*op.Lookups)
	for i := range ids {
		ids[i] = rng.Intn(table.Rows)
	}
	arena := tensor.NewArena()
	op.ForwardEx(ids, batch, arena, workers) // warm: grow slab
	arena.Reset()                            // right-size before timing
	return func() {
		arena.Reset()
		op.ForwardEx(ids, batch, arena, workers)
	}, tableRows{table.W.Data(), table.Cols, [][]int{ids}, table.W}
}

// --- Gather benchmarks: one gather per store kind ---
//
// benchmarkSLSGather replays a rotating pool of generator-drawn ID
// sets through one SLS op (batch 64 × 80 lookups × 64 columns, the
// shape of benchmarkSLS), so steady state reflects cross-batch row
// reuse rather than a pure replay of a single warm batch. The default
// is what serves in-process tables: the plan-free local gather. The
// planned variants put the op behind a GatherSource (the only store
// the dedup plan and the row cache run in front of), here a
// synchronous in-process one, so they time the plan, the staging copy
// and the cache without a socket; the cached one uses the
// EXPERIMENTS.md operating point of 5 % of rows. With Zipf(1.1)
// traffic one merged batch touches ~1.8k unique rows of 100k, so the
// hot head stays resident across batches while the tail churns.
type slsGatherBench struct {
	rows      int     // table height (0 = 100k)
	cols      int     // table width (0 = 64)
	batch     int     // samples per gather (0 = 64)
	s         float64 // Zipf skew (0 = uniform)
	int8Table bool    // row-wise int8 table instead of fp32
	planned   bool    // gather through a syncSource: dedup plan + staged accumulate
	cacheRows int     // with planned, LRU row cache in front of the source (0 = none)
}

// syncSource is a GatherSource over an op's own tables whose gather
// completes inside BeginGather and which is its own PendingGather, so
// a pass through it allocates nothing (internal/nn's tests have the
// same stand-in for the remote tier).
type syncSource struct{ nn.RowStore }

func (s *syncSource) BeginGather(ids []int64, dstRows []int32, dst *tensor.Tensor, _ time.Time) nn.PendingGather {
	for i, id := range ids {
		s.ReadRow(id, dst.Row(int(dstRows[i])))
	}
	return s
}

func (s *syncSource) Wait() (bool, error) { return false, nil }

func benchmarkSLSGather(b *testing.B, cfg slsGatherBench) {
	op, cache, _ := slsGatherOp(b, cfg)
	runOp(b, op)
	b.StopTimer()
	if cache != nil {
		b.ReportMetric(100*cache.Stats().HitRate(), "hit-%")
	}
}

// slsGatherOp returns the gather op, its row cache (nil without one)
// and the fp32 rows it gathers from.
func slsGatherOp(tb testing.TB, cfg slsGatherBench) (func(), *embcache.Concurrent, tableRows) {
	rows, cols, batch := cfg.rows, cfg.cols, cfg.batch
	if rows == 0 {
		rows = 100_000
	}
	if cols == 0 {
		cols = 64
	}
	if batch == 0 {
		batch = 64
	}
	rng := stats.NewRNG(7)
	table := nn.NewEmbeddingTable("bench", rows, cols, rng)
	op := nn.NewSLSOp(table, 80)
	if cfg.int8Table {
		op.Quant = nn.Quantize(table)
	}
	var cache *embcache.Concurrent
	if cfg.planned {
		op.SetRowStore(&syncSource{op.LocalStore()})
		if cfg.cacheRows > 0 {
			var err error
			if cache, err = embcache.NewConcurrent(cfg.cacheRows, cols, "lru", 1); err != nil {
				tb.Fatal(err)
			}
			op.SetRowCache(cache)
		}
	}
	var gen trace.IDGenerator
	if cfg.s == 0 {
		gen = trace.NewUniform(table.Rows, rng.Split())
	} else {
		gen = trace.NewZipfian(table.Rows, cfg.s, rng.Split())
	}
	// The pool must be large enough that its cumulative distinct-row
	// set far exceeds the cache, or steady state degenerates into a
	// pure replay where even the coldest tail row is resident and the
	// hit rate reads ~100%.
	const nSets = 64
	sets := make([][]int, nSets)
	for i := range sets {
		sets[i] = make([]int, batch*op.Lookups)
		gen.Fill(sets[i])
	}
	arena := tensor.NewArena()
	for i := 0; i < nSets; i++ { // warm: slab, plan pool, cache
		arena.Reset()
		op.ForwardEx(sets[i], batch, arena, 1)
	}
	arena.Reset()
	i := 0
	return func() {
		arena.Reset()
		op.ForwardEx(sets[i%nSets], batch, arena, 1)
		i++
	}, cache, tableRows{table.W.Data(), cols, sets, table.W}
}

// The plan-free local gather, fp32 and int8 (tensor.PoolRowsI8, one
// call a row shard), on Zipf(1.1) and uniform IDs. The 64-column int8 Zipf
// case is the gated sls_gather_zipf_b64; the Dim32 one is the shape
// rmc2_zipf serves (150k × 32 rows, batch 16), ungated.
func BenchmarkSLSGatherZipf(b *testing.B) { benchmarkSLSGather(b, slsGatherBench{s: 1.1}) }
func BenchmarkSLSGatherZipfInt8(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{s: 1.1, int8Table: true})
}
func BenchmarkSLSGatherZipfInt8Dim32(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{rows: 150_000, cols: 32, batch: 16, s: 1.1, int8Table: true})
}
func BenchmarkSLSGatherUniformInt8(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{int8Table: true})
}

// At 1M rows the fp32 table (256 MB) and the int8 one (64 MB) are far
// beyond the LLC: every tail row is a DRAM miss, and the hot head is
// held by the hardware hierarchy instead of a software cache.
func BenchmarkSLSGatherBig(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{rows: 1_000_000, s: 1.1})
}
func BenchmarkSLSGatherBigInt8(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{rows: 1_000_000, s: 1.1, int8Table: true})
}

// The planned gather in front of a GatherSource, without and with the
// 5 % row cache. The cached fp32 case is the gated shard_gather_b64
// (ForwardEx is Begin and Finish back to back): the only place the
// plan runs, less the socket.
func BenchmarkSLSGatherPlanned(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{s: 1.1, planned: true})
}
func BenchmarkSLSGatherPlannedCached(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{s: 1.1, planned: true, cacheRows: 5000})
}
func BenchmarkSLSGatherPlannedInt8(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{s: 1.1, int8Table: true, planned: true})
}
func BenchmarkSLSGatherPlannedCachedInt8(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{s: 1.1, int8Table: true, planned: true, cacheRows: 5000})
}
func BenchmarkSLSGatherPlannedCachedBigInt8(b *testing.B) {
	benchmarkSLSGather(b, slsGatherBench{rows: 1_000_000, s: 1.1, int8Table: true, planned: true, cacheRows: 50_000})
}

// benchmarkFCRM times the acceptance-shape FC layer (batch 256,
// 512→256 — the RM-scale GEMM of the kernel-dispatch tentpole) on the
// serving path with one worker. It carries the zero-alloc contract via
// the regression gate.
func benchmarkFCRM(b *testing.B) { runOp(b, fcRMOp()) }

func fcRMOp() func() {
	rng := stats.NewRNG(9)
	fc := nn.NewFC("bench", 512, 256, rng)
	x := tensor.New(256, 512)
	xd := x.Data()
	for i := range xd {
		xd[i] = rng.Float32()*2 - 1
	}
	arena := tensor.NewArena()
	for i := 0; i < 2; i++ { // warm: pack weights, grow the slab
		arena.Reset()
		fc.ForwardEx(x, arena, 1, false)
	}
	arena.Reset()
	return func() {
		arena.Reset()
		fc.ForwardEx(x, arena, 1, false)
	}
}

func BenchmarkFCRMBatch256(b *testing.B) { benchmarkFCRM(b) }

// BenchmarkFCRMC3Batch16 times each of rmc3's bottom-MLP FC layers
// (512→2560→256→128, each with its ReLU) at batch 16 on one worker:
// the m = 16 GEMMs that are most of rmc3_dense's serve CPU, and the
// shape the avx512 tier's 16-row kernel takes whole. It reports
// GFLOP/s; RECSYS_KERNEL=avx2 (or go) times another tier.
func BenchmarkFCRMC3Batch16(b *testing.B) {
	const batch = 16
	rng := stats.NewRNG(9)
	for _, s := range []struct{ in, out int }{{512, 2560}, {2560, 256}, {256, 128}} {
		b.Run(fmt.Sprintf("%dx%d", s.in, s.out), func(b *testing.B) {
			fc := nn.NewFC("bench", s.in, s.out, rng)
			x := tensor.New(batch, s.in)
			xd := x.Data()
			for i := range xd {
				xd[i] = rng.Float32()*2 - 1
			}
			arena := tensor.NewArena()
			fc.ForwardEx(x, arena, 1, true) // warm: pack weights, grow the slab
			runOp(b, func() {
				arena.Reset()
				fc.ForwardEx(x, arena, 1, true)
			})
			b.ReportMetric(2*batch*float64(s.in*s.out)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// benchmarkGemmParallel times the cache-blocked ParallelGemmPacked at
// batch 256 (256×512×512, resolved workers = GOMAXPROCS): the gate
// case asserting blocked parallel stays ≥ serial at large batch. Not
// zero-alloc: the multi-worker fan-out path allocates its closure and
// shard bookkeeping on multi-core hosts.
func benchmarkGemmParallel(b *testing.B) {
	const m, k = 256, 512
	b.SetBytes(int64(4 * m * k))
	runOp(b, gemmParallelOp())
}

func gemmParallelOp() func() {
	r := stats.NewRNG(1)
	const m, k, n = 256, 512, 512
	a := tensor.New(m, k)
	ad := a.Data()
	for i := range ad {
		ad[i] = r.Float32()*2 - 1
	}
	w := tensor.New(k, n)
	wd := w.Data()
	for i := range wd {
		wd[i] = r.Float32()*2 - 1
	}
	pb := tensor.PackB(w)
	c := tensor.New(m, n)
	return func() { tensor.ParallelGemmPacked(a, pb, c, 0) }
}

func BenchmarkGemmParallelBatch256(b *testing.B) { benchmarkGemmParallel(b) }

// benchmarkForwardHot is benchmarkForward with a warm arena. With workers == 1 the steady-state pass must report 0
// allocs/op — the tentpole's allocation contract.
func benchmarkForwardHot(b *testing.B, cfg model.Config, batch, workers int) {
	runOp(b, forwardHotOp(b, cfg, batch, workers))
}

func forwardHotOp(tb testing.TB, cfg model.Config, batch, workers int) func() {
	m, err := model.Build(cfg, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	req := model.NewRandomRequest(cfg, batch, stats.NewRNG(2))
	arena := tensor.NewArena()
	m.ForwardEx(req, arena, workers) // warm: pack weights, grow slab
	arena.Reset()                    // right-size the slab before timing
	return func() {
		arena.Reset()
		m.ForwardEx(req, arena, workers)
	}
}

// The paper's inference batch sizes: service-time batching clusters
// around 16-64 samples (§III, Figure 8 sweeps 1-256). Batch 4 is the
// small-request shape the filtering model serves (rmc1_smallreq): its
// FC layers run only m%8 tail rows.
func BenchmarkForwardHotRMC1Batch4(b *testing.B) {
	benchmarkForwardHot(b, model.RMC1Small().Scaled(10), 4, 1)
}
func BenchmarkForwardHotRMC1Batch16(b *testing.B) {
	benchmarkForwardHot(b, model.RMC1Small().Scaled(10), 16, 1)
}
func BenchmarkForwardHotRMC1Batch64(b *testing.B) {
	benchmarkForwardHot(b, model.RMC1Small().Scaled(10), 64, 1)
}
func BenchmarkForwardHotRMC2Batch64(b *testing.B) {
	benchmarkForwardHot(b, model.RMC2Small().Scaled(100), 64, 1)
}
func BenchmarkForwardHotRMC3Batch64(b *testing.B) {
	benchmarkForwardHot(b, model.RMC3Small().Scaled(40), 64, 1)
}
func BenchmarkForwardHotParallelRMC2Batch64(b *testing.B) {
	benchmarkForwardHot(b, model.RMC2Small().Scaled(100), 64, 0)
}

// forwardHotZipfOp is forwardHotOp on the model rmc2_zipf serves,
// rmc2-int8:10 (32 int8 tables of 150 000 × 32 rows, 154 MB, 80
// lookups each), with scattered Zipf(1.1) IDs rotating across a
// request pool: the 32-table cache pressure a one-table gather
// benchmark misses, SLS-bound through the int8 pooling kernel.
func forwardHotZipfOp(tb testing.TB, batch int) func() {
	spec, err := model.ParseSpec("rmc2-int8:10", 1)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := spec.Build(stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := spec.Config()
	rng := stats.NewRNG(2)
	gens := make([]trace.IDGenerator, len(cfg.Tables))
	for i, t := range cfg.Tables {
		gens[i] = trace.NewZipfian(t.Rows, 1.1, rng.Split())
	}
	const nReq = 16
	reqs := make([]model.Request, nReq)
	for k := range reqs {
		reqs[k] = model.NewRandomRequest(cfg, batch, rng)
		for t, g := range gens {
			g.Fill(reqs[k].SparseIDs[t])
		}
	}
	arena := tensor.NewArena()
	for _, req := range reqs { // warm: pack weights, grow the slab
		arena.Reset()
		m.ForwardEx(req, arena, 1)
	}
	i := 0
	return func() {
		arena.Reset()
		m.ForwardEx(reqs[i%nReq], arena, 1)
		i++
	}
}

// rmc2_zipf's requests are 4 items; batch 32 is what the batch former
// builds from them under load.
func BenchmarkForwardHotRMC2Int8Batch4(b *testing.B)  { runOp(b, forwardHotZipfOp(b, 4)) }
func BenchmarkForwardHotRMC2Int8Batch32(b *testing.B) { runOp(b, forwardHotZipfOp(b, 32)) }

// benchmarkEngineRank times the full request lifecycle — admission,
// validation, queue, the caller's own pass on an executor token,
// reply — on the pooled RankInto path with batching and tracing off.
// Steady state must report 0 allocs/op: the whole-engine extension of
// the ForwardEx allocation contract, enforced by TestBenchRegression.
func benchmarkEngineRank(b *testing.B, batch int) { runOp(b, engineRankOp(b, batch)) }

func engineRankOp(tb testing.TB, batch int) func() {
	return engineRankWithOp(tb, engine.Options{
		Workers: 1, QueueDepth: 8, MaxBatch: 1,
		MaxWait: time.Millisecond, IntraOpWorkers: 1,
	}, batch)
}

// benchmarkEngineRankCoalesce is the same lifecycle with batching on at
// the serving defaults (32 samples / 2 ms) and a second token: one
// caller at a time always finds a token free, so the batch former
// must dispatch each request at once, holding nothing and touching no
// timer. A former that waits out MaxWait shows here as 2 ms/op.
func benchmarkEngineRankCoalesce(b *testing.B, batch int) {
	runOp(b, engineRankCoalesceOp(b, batch))
}

func engineRankCoalesceOp(tb testing.TB, batch int) func() {
	opts := engine.DefaultOptions()
	opts.Workers, opts.QueueDepth, opts.IntraOpWorkers = 2, 8, 1
	return engineRankWithOp(tb, opts, batch)
}

// servingEngine returns an engine serving m as its default model,
// closed when tb ends.
func servingEngine(tb testing.TB, m *model.Model, opts engine.Options) *engine.Engine {
	eng, err := engine.NewEngine(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	if err := eng.Register(engine.DefaultModelName, m, engine.ModelOptions{}); err != nil {
		tb.Fatal(err)
	}
	return eng
}

func engineRankWithOp(tb testing.TB, opts engine.Options, batch int) func() {
	cfg := model.RMC1Small().Scaled(500)
	m, err := model.Build(cfg, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	eng := servingEngine(tb, m, opts)
	req := model.NewRandomRequest(cfg, batch, stats.NewRNG(2))
	dst := make([]float32, 0, batch)
	ctx := context.Background()
	rank := func() {
		if _, err := eng.RankInto(ctx, "", dst, req); err != nil {
			tb.Fatal(err)
		}
	}
	// Warm the job pool, token scratch, and latency window.
	for i := 0; i < 50; i++ {
		rank()
	}
	return rank
}

func BenchmarkEngineRankBatch16(b *testing.B) { benchmarkEngineRank(b, 16) }

func BenchmarkEngineRankCoalesceBatch4(b *testing.B) { benchmarkEngineRankCoalesce(b, 4) }

// rankBody marshals req as a client does: engine.RankRequest through
// encoding/json.
func rankBody(tb testing.TB, req model.Request) []byte {
	rr := engine.RankRequest{SparseIDs: req.SparseIDs}
	for i := 0; i < req.Batch; i++ {
		rr.Dense = append(rr.Dense, req.Dense.Row(i))
	}
	body, err := json.Marshal(rr)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// benchmarkHTTPDecode times the POST /rank body parser alone on one
// body of cfg's shape: the float-heavy RMC3 body and the integer-heavy
// RMC2 body of the system benchmark. A warm decoder must not allocate.
// ns/number is the time over every float and ID in the body, the rung
// ROADMAP's ladder names.
func benchmarkHTTPDecode(b *testing.B, cfg model.Config, batch int) {
	decode, bodyLen, numbers := httpDecodeOp(b, cfg, batch)
	b.SetBytes(int64(bodyLen))
	runOp(b, decode)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numbers), "ns/number")
}

// httpDecodeOp returns the decode op, the body's length and the count
// of numbers in it.
func httpDecodeOp(tb testing.TB, cfg model.Config, batch int) (decode func(), bodyLen, numbers int) {
	req := model.NewRandomRequest(cfg, batch, stats.NewRNG(2))
	body := rankBody(tb, req)
	numbers = batch * cfg.DenseIn
	for _, ids := range req.SparseIDs {
		numbers += len(ids)
	}
	var d engine.RankDecoder
	decode = func() {
		if _, _, _, err := d.Decode(cfg, body); err != nil {
			tb.Fatal(err)
		}
	}
	decode() // grows the buffers
	return decode, len(body), numbers
}

func BenchmarkHTTPDecodeRMC3Batch16(b *testing.B) {
	benchmarkHTTPDecode(b, model.RMC3Small().Scaled(10), 16)
}
func BenchmarkHTTPDecodeRMC2Batch4(b *testing.B) {
	benchmarkHTTPDecode(b, model.RMC2Small().Scaled(10), 4)
}

// benchmarkHTTPRank times one POST /rank through the engine's handler,
// body read to response written, on an RMC3-shaped model (tables
// shrunk; the 512-wide dense path is what the body and the forward
// pass are made of).
func benchmarkHTTPRank(b *testing.B, batch int) {
	post, bodyLen := httpRankOp(b, batch)
	b.SetBytes(int64(bodyLen))
	runOp(b, post)
}

// httpRankOp returns the POST op and the body's length.
func httpRankOp(tb testing.TB, batch int) (post func(), bodyLen int) {
	cfg := model.RMC3Small().Scaled(2000)
	m, err := model.Build(cfg, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	h := servingEngine(tb, m, engine.Options{
		Workers: 1, QueueDepth: 8, MaxBatch: 1,
		MaxWait: time.Millisecond, IntraOpWorkers: 1,
	}).Handler()
	body := rankBody(tb, model.NewRandomRequest(cfg, batch, stats.NewRNG(2)))
	post = func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rank", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for i := 0; i < 20; i++ { // warm the pools and the token scratch
		post()
	}
	return post, len(body)
}

func BenchmarkHTTPRankRMC3Batch16(b *testing.B) { benchmarkHTTPRank(b, 16) }

// benchmarkEngineRankZipf is benchmarkEngineRank on an RMC2-shaped
// int8 model (32 tables × 80 lookups, tables shrunk to 1 500 rows)
// with Zipf(1.1) sparse IDs rotating across a request pool: the
// zero-alloc contract over the lifecycle rmc2_zipf runs, SLS-bound
// through the local int8 gather.
func benchmarkEngineRankZipf(b *testing.B, batch int) { runOp(b, engineRankZipfOp(b, batch)) }

func engineRankZipfOp(tb testing.TB, batch int) func() {
	cfg := model.RMC2Small().Scaled(1000)
	m, err := model.Build(cfg, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	eng := servingEngine(tb, m.QuantizeTables(), engine.Options{
		Workers: 1, QueueDepth: 8, MaxBatch: 1,
		MaxWait: time.Millisecond, IntraOpWorkers: 1,
	})
	rng := stats.NewRNG(2)
	gens := make([]trace.IDGenerator, len(cfg.Tables))
	for i, tb := range cfg.Tables {
		gens[i] = trace.NewZipfian(tb.Rows, 1.1, rng.Split())
	}
	const nReq = 8
	reqs := make([]model.Request, nReq)
	for k := range reqs {
		reqs[k] = model.NewRandomRequest(cfg, batch, rng)
		for t, g := range gens {
			g.Fill(reqs[k].SparseIDs[t])
		}
	}
	dst := make([]float32, 0, batch)
	ctx := context.Background()
	i := 0
	rank := func() {
		if _, err := eng.RankInto(ctx, "", dst, reqs[i%nReq]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for j := 0; j < 50; j++ { // warm pools and the worker arena
		rank()
	}
	return rank
}

func BenchmarkEngineRankZipfBatch16(b *testing.B) { benchmarkEngineRankZipf(b, 16) }

// Serial allocating passes (fresh tensors, no arena) at the same shapes.
func BenchmarkForwardRMC1Batch64(b *testing.B) { benchmarkForward(b, model.RMC1Small().Scaled(10), 64) }
func BenchmarkForwardRMC2Batch64(b *testing.B) {
	benchmarkForward(b, model.RMC2Small().Scaled(100), 64)
}
func BenchmarkForwardRMC3Batch64(b *testing.B) { benchmarkForward(b, model.RMC3Small().Scaled(40), 64) }

func BenchmarkForwardRMC1Batch1(b *testing.B)  { benchmarkForward(b, model.RMC1Small().Scaled(10), 1) }
func BenchmarkForwardRMC1Batch32(b *testing.B) { benchmarkForward(b, model.RMC1Small().Scaled(10), 32) }
func BenchmarkForwardRMC2Batch8(b *testing.B)  { benchmarkForward(b, model.RMC2Small().Scaled(100), 8) }
func BenchmarkForwardRMC3Batch8(b *testing.B)  { benchmarkForward(b, model.RMC3Small().Scaled(40), 8) }
func BenchmarkForwardNCFBatch32(b *testing.B)  { benchmarkForward(b, model.MLPerfNCF(), 32) }

func BenchmarkSchedOptimize(b *testing.B) {
	cfg := model.RMC2Small()
	for i := 0; i < b.N; i++ {
		sched.Optimize(cfg, arch.Skylake(), 450_000, nil)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	cfg := model.RMC1Small().Scaled(100)
	m, err := model.Build(cfg, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	tr := trainNewTrainer(m)
	req := model.NewRandomRequest(cfg, 32, stats.NewRNG(2))
	labels := make([]float32, 32)
	for i := range labels {
		labels[i] = float32(i % 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(req, labels)
	}
}

func BenchmarkServerSimulate(b *testing.B) {
	sc := server.SimConfig{
		Model: model.RMC1Small(), Machine: arch.Broadwell(),
		Batch: 16, Workers: 8, QPS: 5000, Requests: 2000, SLAUS: 5000, Seed: 3,
	}
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i) + 1
		server.Simulate(sc)
	}
}

// benchmarkHistObserve drives the lock-free fixed-bucket histogram's
// Observe — on the hot path of every Rank (latency) and every formed
// batch (size). The values cycle across the whole latency ladder so
// the binary-searched bucket pick sees shallow and deep probes alike.
func histObserveOp() func() {
	h := obs.NewHistogram(obs.LatencyBoundsNS)
	vals := [8]int64{
		90_000, 180_000, 450_000, 1_000_000,
		2_400_000, 9_000_000, 70_000_000, 2_000_000_000,
	}
	i := 0
	return func() {
		h.Observe(vals[i&7])
		i++
	}
}

// BenchmarkHistObserve is the standalone entry point for the gated
// histogram-observe case (bench_regress_test.go enforces zero allocs).
func BenchmarkHistObserve(b *testing.B) { runOp(b, histObserveOp()) }
