// Command recbench is the configurable recommendation-model benchmark
// (the repository's analogue of the paper's open-source DLRM benchmark,
// Figure 13): it takes a Table I class or a JSON model config — the
// knobs of Figure 13: embedding table count/shape, lookups, MLP widths —
// and reports its per-operator latency on a chosen server architecture,
// batch size, and co-location degree.
//
// Usage:
//
//	recbench -model rmc2                           # a Table I class
//	recbench -model rmc2 -save-config custom.json  # start a custom model from it
//	recbench -config custom.json                   # the edited custom model
//	recbench -model rmc3 -machine Skylake -batch 128 -tenants 4
//	recbench -model rmc2-int8 -measure -zipf 1.1
//	recbench -fig10 -peak-gflops avx2=92,avx512=176 # GEMM roofline sweep
//
// -model takes the single-model spec grammar of DESIGN.md "Bring-up";
// its quantized forms need -measure. -config reads the JSON that
// -save-config writes (and cmd/train reads) and wins over -model.
// -zipf s draws sparse IDs from a per-table Zipf(s) generator (fresh
// draw every pass; 0 = uniform). The tables are in-process, so rows are
// read in place; the hot-row cache belongs to the remote tier (loadgen
// -real -emb-shards -emb-cache).
//
// -fig10 reproduces the paper's Figure 10 axis on this host: an
// RM-scale FC GEMM (512→256) swept over batch 1..256, reporting
// GFLOP/s and, when -peak-gflops is given, percent of single-core
// peak, for each of the avx2 and avx512 kernel tiers this host runs
// (the go tier where it runs neither) — the paper's AVX-2 against
// AVX-512 batching curve in one invocation. -peak-gflops takes
// tier=GFLOP/s pairs (avx2=92,avx512=176), since a ZMM FMA does twice
// a YMM one's work. With -workers N (N > 1) it appends a
// parallel-vs-serial crossover sweep of the cache-blocked
// ParallelGemmPacked against the serial packed GEMM, on the tier
// selected at start-up.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/perf"
	"recsys/internal/stats"
	"recsys/internal/tensor"
	"recsys/internal/trace"
)

func main() {
	var (
		preset      = flag.String("model", "rmc1", model.SingleSpecUsage)
		configPath  = flag.String("config", "", "JSON model-config file (overrides -model)")
		saveConfig  = flag.String("save-config", "", "write the resolved config as JSON and exit")
		machineName = flag.String("machine", "Broadwell", "Haswell, Broadwell, or Skylake")
		batch       = flag.Int("batch", 1, "batch size (user-item pairs per inference)")
		tenants     = flag.Int("tenants", 1, "co-located model instances on the socket")
		ht          = flag.Bool("ht", false, "hyperthread (two tenants per core)")

		measure      = flag.Bool("measure", false, "run real forward passes instead of the analytic model")
		fig10        = flag.Bool("fig10", false, "sweep an RM-scale FC GEMM over batch 1..256 and report GFLOP/s (Figure 10)")
		peakGFLOPS   = flag.String("peak-gflops", "", "with -fig10, each tier's single-core fp32 peak for its %-of-peak column, as tier=GFLOP/s pairs (avx2=92,avx512=176); a tier left out has no column")
		fig10Workers = flag.Int("workers", 0, "with -fig10, also sweep the blocked parallel GEMM with this many workers against serial (0 = skip)")
		measureIters = flag.Int("measure-iters", 200, "measured forward passes after warmup")
		measureScale = flag.Int("measure-scale", 100, "embedding-table shrink factor for -measure")
		intraOp      = flag.Int("intra-op", 1, "goroutines per measured forward pass (0 = GOMAXPROCS)")
		zipfS        = flag.Float64("zipf", 0, "with -measure, draw sparse IDs from a per-table Zipf(s) generator (0 = uniform)")
	)
	flag.Parse()

	if *fig10 {
		if err := runFig10(*measureIters, *peakGFLOPS, *fig10Workers); err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
		return
	}

	// The analytic model prices the preset at production size; -measure
	// builds it, shrunk by -measure-scale unless the spec has its own.
	scale := 1
	if *measure {
		scale = *measureScale
	}
	spec := model.Spec{Scale: scale}
	var err error
	if *configPath != "" {
		spec.Preset, err = model.LoadConfig(*configPath)
	} else {
		spec, err = model.ParseSingleSpec(*preset, scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if (spec.Int8Tables || *zipfS != 0) && !*measure {
		fmt.Fprintln(os.Stderr, "recbench: -int8 presets and -zipf require -measure (the analytic model is fp32/uniform)")
		os.Exit(1)
	}
	if *saveConfig != "" {
		if err := model.SaveConfig(spec.Preset, *saveConfig); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *saveConfig)
		return
	}
	if *measure {
		if err := runMeasure(spec, *batch, *measureIters, *intraOp, *zipfS); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	m, err := arch.ByName(*machineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := spec.Config()
	mt := perf.Estimate(cfg, perf.Context{Machine: m, Batch: *batch, Tenants: *tenants, Hyperthread: *ht})
	fmt.Printf("%s on %s  batch=%d tenants=%d ht=%v\n", cfg.Name, m.Name, *batch, *tenants, *ht)
	fmt.Printf("embedding storage: %.2f GB, MLP parameters: %d\n\n", float64(cfg.EmbeddingBytes())/(1<<30), cfg.MLPParams())
	fmt.Printf("%-28s %-18s %12s %12s %12s\n", "operator", "kind", "compute", "memory", "total")
	for _, op := range mt.Ops {
		fmt.Printf("%-28s %-18s %10.2fµs %10.2fµs %10.2fµs\n", op.Name, op.Kind, op.ComputeUS, op.MemoryUS, op.TotalUS)
	}
	fmt.Printf("\ntotal latency: %.1fµs  (%.0f items/s per instance, %.0f items/s per socket)\n",
		mt.TotalUS, float64(*batch)/mt.TotalUS*1e6, float64(*batch**tenants)/mt.TotalUS*1e6)
}

// runMeasure executes real arena-backed forward passes on this
// machine (as opposed to the analytic cycle model) and reports the
// measured latency distribution — the same hot path cmd/serve runs,
// so the -intra-op knob here mirrors engine.Options.IntraOpWorkers.
func runMeasure(spec model.Spec, batch, iters, intraOp int, zipfS float64) error {
	if iters < 1 {
		return fmt.Errorf("recbench: -measure-iters must be >= 1, got %d", iters)
	}
	m, err := spec.Build(stats.NewRNG(1))
	if err != nil {
		return err
	}
	cfg := m.Config
	// With skewed sparse traffic a fixed request would replay one draw's
	// hot rows from the CPU caches after the first pass; refill the IDs
	// from the generators before every pass instead (the fill is noise
	// next to the forward itself).
	var idGens []trace.IDGenerator
	if zipfS != 0 {
		rng := stats.NewRNG(3)
		for _, tb := range cfg.Tables {
			idGens = append(idGens, trace.NewZipfian(tb.Rows, zipfS, rng.Split()))
		}
	}
	req := model.NewRandomRequest(cfg, batch, stats.NewRNG(2))
	refill := func() {
		for t, g := range idGens {
			g.Fill(req.SparseIDs[t])
		}
	}
	arena := tensor.NewArena()
	// Warmup: packs FC weights, grows the arena to its steady-state
	// working set, and lets the measured loop run allocation-free.
	for i := 0; i < 3; i++ {
		refill()
		arena.Reset()
		m.ForwardEx(req, arena, intraOp)
	}
	lat := make([]float64, 0, iters)
	// Mallocs delta across the measured loop ÷ iters = allocs/op; the
	// refill draws are included, so a nonzero count means the serving
	// path itself regressed only if it exceeds the generator's share.
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i := 0; i < iters; i++ {
		refill()
		t0 := time.Now()
		arena.Reset()
		m.ForwardEx(req, arena, intraOp)
		lat = append(lat, float64(time.Since(t0).Microseconds()))
	}
	total := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	sample := stats.NewSample(len(lat))
	sample.AddAll(lat)
	tableKind := "fp32"
	if spec.Int8Tables {
		tableKind = "int8"
	}
	idKind := "fixed-uniform"
	if len(idGens) > 0 {
		idKind = idGens[0].Name()
	}
	// shards=local: recbench measures the in-process gather path; the
	// remote-tier analogue is loadgen -real -emb-shards, which stamps
	// the tier topology in the same position.
	fmt.Printf("%s measured on this host  batch=%d scale=%d intra-op=%d iters=%d tables=%s ids=%s kernel=%s shards=local\n",
		cfg.Name, batch, spec.Scale, intraOp, iters, tableKind, idKind, tensor.KernelTier())
	fmt.Printf("p50 %.1fµs  p95 %.1fµs  p99 %.1fµs  mean %.1fµs\n",
		sample.Percentile(50), sample.Percentile(95), sample.Percentile(99),
		float64(total.Microseconds())/float64(iters))
	fmt.Printf("throughput: %.0f items/s  allocs/op: %.1f\n",
		float64(batch*iters)/total.Seconds(),
		float64(msAfter.Mallocs-msBefore.Mallocs)/float64(iters))
	return nil
}

// runFig10 is the paper's Figure 10 axis measured on this host: FC
// GEMM throughput as a function of batch size, per kernel tier. The
// shape is the RM-scale 512→256 layer; each batch 1..256 (powers of
// two) runs the serving path's packed GEMM on one core (workers=1 —
// the figure is a per-core roofline, parallel scaling is a separate
// axis), the tiers taking turns at each batch so a drift of the host
// reaches them alike. Each tier's GFLOP/s is also reported as percent
// of its peak when peaks names one (e.g. 67.2 for a 2.1 GHz core with
// two 8-wide FMA ports, twice that with 16-wide ones).
func runFig10(iters int, peaks string, workers int) error {
	const in, out = 512, 256
	if iters <= 0 {
		return fmt.Errorf("-measure-iters must be positive, got %d", iters)
	}
	tiers := fig10Tiers()
	peak, err := parsePeaks(peaks, tiers)
	if err != nil {
		return err
	}
	start := tensor.KernelTier()
	fmt.Printf("Figure 10 sweep: FC %d→%d, fp32 kernels=%s, iters=%d\n", in, out, strings.Join(tiers, ","), iters)
	header := fmt.Sprintf("%7s", "batch")
	for _, tier := range tiers {
		header += fmt.Sprintf(" %14s %14s", tier+" µs/op", tier+" GFLOP/s")
		if peak[tier] > 0 {
			header += fmt.Sprintf(" %8s", "% peak")
		}
	}
	fmt.Println(header)
	rng := stats.NewRNG(1)
	fc := nn.NewFC("fig10", in, out, rng)
	for batch := 1; batch <= 256; batch *= 2 {
		x := tensor.New(batch, in)
		xd := x.Data()
		for i := range xd {
			xd[i] = rng.Float32()*2 - 1
		}
		ops := 2 * float64(batch) * in * out
		arena := tensor.NewArena()
		row := fmt.Sprintf("%7d", batch)
		for _, tier := range tiers {
			if err := tensor.SetKernel(tier); err != nil {
				return err
			}
			for i := 0; i < 3; i++ { // warmup: pack, grow arena
				arena.Reset()
				fc.ForwardEx(x, arena, 1, false)
			}
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				arena.Reset()
				fc.ForwardEx(x, arena, 1, false)
			}
			el := time.Since(t0).Seconds()
			gflops := ops * float64(iters) / el / 1e9
			row += fmt.Sprintf(" %14.1f %14.1f", el/float64(iters)*1e6, gflops)
			if peak[tier] > 0 {
				row += fmt.Sprintf(" %7.1f%%", 100*gflops/peak[tier])
			}
		}
		fmt.Println(row)
	}
	if err := tensor.SetKernel(start); err != nil {
		return err
	}
	if workers > 1 {
		runFig10Parallel(iters, workers)
	}
	return nil
}

// fig10Tiers returns the tiers -fig10 sweeps: avx2 and avx512 where
// this host runs them, the go tier where it runs neither.
func fig10Tiers() []string {
	start := tensor.KernelTier()
	defer func() { _ = tensor.SetKernel(start) }()
	var tiers []string
	for _, tier := range []string{tensor.KernelAVX2, tensor.KernelAVX512} {
		if tensor.SetKernel(tier) == nil {
			tiers = append(tiers, tier)
		}
	}
	if len(tiers) == 0 {
		tiers = []string{tensor.KernelGo}
	}
	return tiers
}

// parsePeaks reads -peak-gflops: comma-separated tier=GFLOP/s pairs,
// each for a tier in tiers; empty names no peak.
func parsePeaks(s string, tiers []string) (map[string]float64, error) {
	peak := map[string]float64{}
	if s == "" {
		return peak, nil
	}
	for _, pair := range strings.Split(s, ",") {
		tier, val, ok := strings.Cut(pair, "=")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil || v <= 0 || !slices.Contains(tiers, tier) {
			return nil, fmt.Errorf("-peak-gflops %q: want tier=GFLOP/s pairs for the swept tiers %v", s, tiers)
		}
		peak[tier] = v
	}
	return peak, nil
}

// runFig10Parallel is the parallel-vs-serial crossover sweep: the raw
// cache-blocked ParallelGemmPacked against the serial packed GEMM on a
// 512×512 B (big enough that parallelKC blocks the k walk), batch 16
// up to 512. Speedup > 1 means the blocked fan-out wins; the crossover
// batch is where the sweep first holds ≥ 1. On a single-vCPU host the
// extra workers time-slice one core and speedup sits at ~1, which is
// exactly what the column should show there.
func runFig10Parallel(iters, workers int) {
	const k, n = 512, 512
	fmt.Printf("\nParallel crossover sweep: fp32 GEMM k=%d n=%d, blocked ParallelGemmPacked, kernel=%s, workers=%d (GOMAXPROCS=%d)\n",
		k, n, tensor.KernelTier(), workers, runtime.GOMAXPROCS(0))
	fmt.Printf("%7s %14s %14s %9s\n", "batch", "serial µs/op", "parallel µs/op", "speedup")
	rng := stats.NewRNG(9)
	w := tensor.New(k, n)
	wd := w.Data()
	for i := range wd {
		wd[i] = rng.Float32()*2 - 1
	}
	pb := tensor.PackB(w)
	for batch := 16; batch <= 512; batch *= 2 {
		a := tensor.New(batch, k)
		ad := a.Data()
		for i := range ad {
			ad[i] = rng.Float32()*2 - 1
		}
		c := tensor.New(batch, n)
		timeGemm := func(wk int) float64 {
			for i := 0; i < 2; i++ { // warmup
				c.Fill(0)
				tensor.ParallelGemmPacked(a, pb, c, wk)
			}
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				c.Fill(0)
				tensor.ParallelGemmPacked(a, pb, c, wk)
			}
			return time.Since(t0).Seconds() / float64(iters) * 1e6
		}
		serial := timeGemm(1)
		par := timeGemm(workers)
		fmt.Printf("%7d %14.1f %14.1f %8.2fx\n", batch, serial, par, serial/par)
	}
}
