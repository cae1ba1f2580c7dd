package perf

import (
	"math"
	"testing"
	"testing/quick"

	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/nn"
)

func estimate(cfg model.Config, m arch.Machine, batch, tenants int) ModelTime {
	return Estimate(cfg, Context{Machine: m, Batch: batch, Tenants: tenants})
}

// TestFigure7Latency reproduces the paper's headline unit-batch numbers
// on Broadwell: RMC1 ≈ 0.04ms, RMC2 ≈ 0.30ms, RMC3 ≈ 0.60ms — a 15×
// spread across models (Takeaway 1).
func TestFigure7Latency(t *testing.T) {
	bdw := arch.Broadwell()
	within := func(got, want, tol float64) bool {
		return got > want*(1-tol) && got < want*(1+tol)
	}
	r1 := estimate(model.RMC1Small(), bdw, 1, 1).TotalUS
	r2 := estimate(model.RMC2Small(), bdw, 1, 1).TotalUS
	r3 := estimate(model.RMC3Small(), bdw, 1, 1).TotalUS
	if !within(r1, 40, 0.3) {
		t.Errorf("RMC1 unit-batch latency = %.1fµs, paper reports ~40µs", r1)
	}
	if !within(r2, 300, 0.3) {
		t.Errorf("RMC2 unit-batch latency = %.1fµs, paper reports ~300µs", r2)
	}
	if !within(r3, 600, 0.3) {
		t.Errorf("RMC3 unit-batch latency = %.1fµs, paper reports ~600µs", r3)
	}
	if spread := r3 / r1; spread < 10 || spread > 25 {
		t.Errorf("latency spread = %.1f×, paper reports 15×", spread)
	}
}

// TestFigure7Breakdown reproduces the operator breakdown of Figure 7
// (right): RMC3 ≥96% FC+BatchMM; RMC1 ~61% FC+BatchMM and ~20% SLS;
// RMC2 ~80% SLS.
func TestFigure7Breakdown(t *testing.T) {
	bdw := arch.Broadwell()
	r1 := estimate(model.RMC1Small(), bdw, 1, 1)
	if f := r1.KindFraction(nn.KindFC, nn.KindBatchMM); f < 0.50 || f > 0.72 {
		t.Errorf("RMC1 FC+BatchMM share = %.2f, paper reports 0.61", f)
	}
	if f := r1.KindFraction(nn.KindSLS); f < 0.12 || f > 0.30 {
		t.Errorf("RMC1 SLS share = %.2f, paper reports 0.20", f)
	}
	r2 := estimate(model.RMC2Small(), bdw, 1, 1)
	if f := r2.KindFraction(nn.KindSLS); f < 0.70 || f > 0.90 {
		t.Errorf("RMC2 SLS share = %.2f, paper reports 0.80", f)
	}
	r3 := estimate(model.RMC3Small(), bdw, 1, 1)
	if f := r3.KindFraction(nn.KindFC, nn.KindBatchMM); f < 0.96 {
		t.Errorf("RMC3 FC+BatchMM share = %.2f, paper reports > 0.96", f)
	}
}

// TestLargeVariants: §V notes a large RMC1 has ~2× the latency of a
// small one.
func TestLargeVariants(t *testing.T) {
	bdw := arch.Broadwell()
	small := estimate(model.RMC1Small(), bdw, 1, 1).TotalUS
	large := estimate(model.RMC1Large(), bdw, 1, 1).TotalUS
	if r := large / small; r < 1.4 || r > 3.5 {
		t.Errorf("RMC1 large/small = %.2f, paper reports ~2", r)
	}
	for _, pair := range [][2]model.Config{
		{model.RMC2Small(), model.RMC2Large()},
		{model.RMC3Small(), model.RMC3Large()},
	} {
		s := estimate(pair[0], bdw, 1, 1).TotalUS
		l := estimate(pair[1], bdw, 1, 1).TotalUS
		if l <= s {
			t.Errorf("%s should be slower than %s", pair[1].Name, pair[0].Name)
		}
	}
}

// TestFigure8BroadwellBestAtBatch16 reproduces Takeaway 3: at batch 16
// Broadwell has the lowest latency for all three model classes.
func TestFigure8BroadwellBestAtBatch16(t *testing.T) {
	for _, cfg := range model.Defaults() {
		bdw := estimate(cfg, arch.Broadwell(), 16, 1).TotalUS
		hsw := estimate(cfg, arch.Haswell(), 16, 1).TotalUS
		skl := estimate(cfg, arch.Skylake(), 16, 1).TotalUS
		if bdw >= hsw || bdw >= skl {
			t.Errorf("%s batch 16: BDW=%.1f HSW=%.1f SKL=%.1f — Broadwell should lead",
				cfg.Name, bdw, hsw, skl)
		}
	}
}

// TestFigure8RMC3Ratios checks the quantitative batch-16 ratios for the
// compute-bound model: Broadwell 1.32× over Haswell, 1.65× over Skylake.
func TestFigure8RMC3Ratios(t *testing.T) {
	cfg := model.RMC3Small()
	bdw := estimate(cfg, arch.Broadwell(), 16, 1).TotalUS
	hsw := estimate(cfg, arch.Haswell(), 16, 1).TotalUS
	skl := estimate(cfg, arch.Skylake(), 16, 1).TotalUS
	if r := hsw / bdw; math.Abs(r-1.32) > 0.25 {
		t.Errorf("RMC3 batch-16 HSW/BDW = %.2f, paper reports 1.32", r)
	}
	if r := skl / bdw; math.Abs(r-1.65) > 0.25 {
		t.Errorf("RMC3 batch-16 SKL/BDW = %.2f, paper reports 1.65", r)
	}
}

// TestFigure8SkylakeWinsAtHighBatch reproduces Takeaway 4: with batching
// AVX-512 Skylake overtakes for the compute-bound models, starting
// around batch 64 for RMC3.
func TestFigure8SkylakeWinsAtHighBatch(t *testing.T) {
	for _, cfg := range []model.Config{model.RMC1Small(), model.RMC3Small()} {
		bdw := estimate(cfg, arch.Broadwell(), 256, 1).TotalUS
		skl := estimate(cfg, arch.Skylake(), 256, 1).TotalUS
		if skl >= bdw {
			t.Errorf("%s batch 256: SKL=%.1f should beat BDW=%.1f", cfg.Name, skl, bdw)
		}
	}
	// Crossover for RMC3 lies between batch 16 and 128.
	cfg := model.RMC3Small()
	if estimate(cfg, arch.Skylake(), 16, 1).TotalUS <= estimate(cfg, arch.Broadwell(), 16, 1).TotalUS {
		t.Error("RMC3: Skylake should still trail at batch 16")
	}
	if estimate(cfg, arch.Skylake(), 128, 1).TotalUS >= estimate(cfg, arch.Broadwell(), 128, 1).TotalUS {
		t.Error("RMC3: Skylake should lead at batch 128")
	}
}

// TestSLSBecomesRMC1Bottleneck reproduces §V: with sufficiently high
// batch sizes SparseLengthsSum becomes RMC1's dominant operator.
func TestSLSBecomesRMC1Bottleneck(t *testing.T) {
	cfg := model.RMC1Small()
	bdw := arch.Broadwell()
	low := estimate(cfg, bdw, 1, 1)
	high := estimate(cfg, bdw, 256, 1)
	if low.KindFraction(nn.KindSLS) >= high.KindFraction(nn.KindSLS) {
		t.Error("SLS share should grow with batch")
	}
	if f := high.KindFraction(nn.KindSLS); f < 0.5 {
		t.Errorf("RMC1 batch-256 SLS share = %.2f, want dominant", f)
	}
}

// TestFigure9Colocation reproduces the co-location degradations of
// Figure 9 on Broadwell at batch 32 with 8 tenants: RMC2 suffers most
// (paper: 2.6×), RMC1 least (1.3×), RMC3 in between (1.6×).
func TestFigure9Colocation(t *testing.T) {
	bdw := arch.Broadwell()
	degrade := func(cfg model.Config) float64 {
		solo := estimate(cfg, bdw, 32, 1).TotalUS
		co := estimate(cfg, bdw, 32, 8).TotalUS
		return co / solo
	}
	d1, d2, d3 := degrade(model.RMC1Small()), degrade(model.RMC2Small()), degrade(model.RMC3Small())
	if d2 < 2.2 || d2 > 3.2 {
		t.Errorf("RMC2 8-tenant degradation = %.2f×, paper reports 2.6×", d2)
	}
	if d1 < 1.1 || d1 > 1.9 {
		t.Errorf("RMC1 8-tenant degradation = %.2f×, paper reports 1.3×", d1)
	}
	if d3 < 1.3 || d3 > 2.0 {
		t.Errorf("RMC3 8-tenant degradation = %.2f×, paper reports 1.6×", d3)
	}
	if !(d2 > d3 && d2 > d1) {
		t.Errorf("RMC2 should degrade most: %.2f/%.2f/%.2f", d1, d2, d3)
	}
}

// TestFigure9SLSShareGrows: co-location shifts time toward
// SparseLengthsSum (RMC1's SLS share grows; RMC3 stays FC-dominated).
func TestFigure9SLSShareGrows(t *testing.T) {
	bdw := arch.Broadwell()
	cfg := model.RMC1Small()
	solo := estimate(cfg, bdw, 32, 1).KindFraction(nn.KindSLS)
	co := estimate(cfg, bdw, 32, 8).KindFraction(nn.KindSLS)
	if co <= solo {
		t.Errorf("RMC1 SLS share should grow under co-location: %.2f → %.2f", solo, co)
	}
	r3 := estimate(model.RMC3Small(), bdw, 32, 8)
	if f := r3.KindFraction(nn.KindFC, nn.KindBatchMM); f < 0.8 {
		t.Errorf("RMC3 should remain FC-dominated under co-location, got %.2f", f)
	}
}

// TestFigure10Crossover reproduces Figure 10: Broadwell leads at low
// co-location, Skylake at high co-location, with a Skylake latency
// cliff once per-tenant LLC shares are exhausted (~16+ tenants).
func TestFigure10Crossover(t *testing.T) {
	cfg := model.RMC2Small()
	lat := func(m arch.Machine, n int) float64 {
		return estimate(cfg, m, 32, n).TotalUS
	}
	bdw, skl := arch.Broadwell(), arch.Skylake()
	if lat(bdw, 2) >= lat(skl, 2) {
		t.Error("Broadwell should lead under low co-location")
	}
	if lat(skl, 12) >= lat(bdw, 12) {
		t.Error("Skylake should lead under high co-location")
	}
	// Skylake cliff: a sudden jump between 12 and 16 tenants (LLC-share
	// exhaustion), steeper than the 8→12 contention growth.
	grow1216 := lat(skl, 16) / lat(skl, 12)
	grow812 := lat(skl, 12) / lat(skl, 8)
	if grow1216 < 1.25*grow812 {
		t.Errorf("Skylake latency cliff missing: 12→16 growth %.2f vs 8→12 growth %.2f", grow1216, grow812)
	}
	// Broadwell, whose 14-core socket never drops below the working-set
	// threshold at this batch, degrades smoothly instead.
	growBDW := lat(bdw, 14) / lat(bdw, 10)
	if growBDW > grow1216 {
		t.Errorf("Broadwell should degrade smoothly: %.2f vs Skylake cliff %.2f", growBDW, grow1216)
	}
}

// TestHyperthreading reproduces §VI: enabling hyperthreading degrades
// FC by ~1.6× and SparseLengthsSum by ~1.3×.
func TestHyperthreading(t *testing.T) {
	cfg := model.RMC2Small()
	bdw := arch.Broadwell()
	base := Estimate(cfg, Context{Machine: bdw, Batch: 32, Tenants: 1})
	ht := Estimate(cfg, Context{Machine: bdw, Batch: 32, Tenants: 1, Hyperthread: true})
	ratioKind := func(k nn.Kind) float64 {
		return ht.ByKind()[k] / base.ByKind()[k]
	}
	if r := ratioKind(nn.KindFC); r < 1.4 || r > 1.7 {
		t.Errorf("hyperthreading FC degradation = %.2f, paper reports 1.6", r)
	}
	if r := ratioKind(nn.KindSLS); r < 1.2 || r > 1.4 {
		t.Errorf("hyperthreading SLS degradation = %.2f, paper reports 1.3", r)
	}
}

func TestContextDefaults(t *testing.T) {
	mt := Estimate(model.RMC1Small(), Context{Machine: arch.Broadwell()})
	if mt.Context.Batch != 1 || mt.Context.Tenants != 1 {
		t.Error("zero batch/tenants should default to 1")
	}
	if mt.Context.HotMass != 0.95 || mt.Context.HotFrac != 0.10 {
		t.Error("locality defaults wrong")
	}
}

func TestByKindSumsToTotal(t *testing.T) {
	mt := estimate(model.RMC2Small(), arch.Skylake(), 8, 4)
	var sum float64
	for _, v := range mt.ByKind() {
		sum += v
	}
	if math.Abs(sum-mt.TotalUS) > 1e-9 {
		t.Errorf("ByKind sums to %.3f, total %.3f", sum, mt.TotalUS)
	}
	all := mt.KindFraction(nn.Kinds()...)
	if math.Abs(all-1) > 1e-9 {
		t.Errorf("all-kind fraction = %v, want 1", all)
	}
	var empty ModelTime
	if empty.KindFraction(nn.KindFC) != 0 {
		t.Error("empty ModelTime fraction should be 0")
	}
}

// Property: throughput (samples per second) is non-decreasing in batch
// size, and latency is non-decreasing in tenant count. Per-inference
// latency itself is NOT monotone in batch on Skylake — the paper's own
// AVX-512 utilization measurements (2.9× at batch 4 vs 14.5× at 16)
// imply a superlinear efficiency jump — so the batch property is stated
// on throughput.
func TestMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		cfgs := model.Defaults()
		cfg := cfgs[int(seed%3)]
		m := arch.Machines()[int(seed/3)%3]
		prevTput := 0.0
		for _, b := range []int{1, 2, 8, 32, 128} {
			lat := estimate(cfg, m, b, 1).TotalUS
			tput := float64(b) / lat
			if tput < prevTput*0.999 {
				return false
			}
			prevTput = tput
		}
		prevLat := 0.0
		for n := 1; n <= m.CoresPerSocket; n++ {
			cur := estimate(cfg, m, 16, n).TotalUS
			if cur < prevLat-1e-9 {
				return false
			}
			prevLat = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 18}); err != nil {
		t.Error(err)
	}
}

// TestLocalityHelps: higher hot-mass (more repeated sparse IDs, as in
// the production traces of Figure 14) must not increase SLS time.
func TestLocalityHelps(t *testing.T) {
	cfg := model.RMC1Small()
	bdw := arch.Broadwell()
	cold := Estimate(cfg, Context{Machine: bdw, Batch: 32, Tenants: 1, HotMass: 0.05, HotFrac: 0.9})
	hot := Estimate(cfg, Context{Machine: bdw, Batch: 32, Tenants: 1, HotMass: 0.99, HotFrac: 0.05})
	if hot.ByKind()[nn.KindSLS] > cold.ByKind()[nn.KindSLS] {
		t.Error("higher locality should not slow SLS")
	}
}

// TestInt8Embeddings: serving quantized embeddings must substantially
// accelerate the embedding-dominated RMC2 (gather bandwidth ÷3.8) and
// barely move the compute-bound RMC3.
func TestInt8Embeddings(t *testing.T) {
	bdw := arch.Broadwell()
	speedup := func(cfg model.Config) float64 {
		fp32 := Estimate(cfg, Context{Machine: bdw, Batch: 16, Tenants: 1})
		int8 := Estimate(cfg, Context{Machine: bdw, Batch: 16, Tenants: 1, Int8Embeddings: true})
		return fp32.TotalUS / int8.TotalUS
	}
	if s := speedup(model.RMC2Small()); s < 2.0 {
		t.Errorf("int8 RMC2 speedup = %.2f, want > 2", s)
	}
	if s := speedup(model.RMC3Small()); s > 1.1 {
		t.Errorf("int8 RMC3 speedup = %.2f, should be marginal", s)
	}
	// Quantization can also pull a previously DRAM-bound table into the
	// LLC: RMC1-large's hot set (12.3MB fp32 → 3.2MB int8).
	if s := speedup(model.RMC1Large()); s < 1.05 {
		t.Errorf("int8 RMC1-large speedup = %.2f, want measurable", s)
	}
}

// TestNUMAInterleaveTradeoff: for a solo memory-bound model,
// node-local tables beat interleaving (no remote hops); under heavy
// co-location interleaving wins by exposing both memory controllers.
func TestNUMAInterleaveTradeoff(t *testing.T) {
	bdw := arch.Broadwell()
	cfg := model.RMC2Small()
	lat := func(tenants int, interleave bool) float64 {
		return Estimate(cfg, Context{
			Machine: bdw, Batch: 32, Tenants: tenants, NUMAInterleave: interleave,
		}).TotalUS
	}
	soloLocal, soloInter := lat(1, false), lat(1, true)
	if soloInter <= soloLocal {
		t.Errorf("solo: interleaving (%.0fµs) should lose to node-local (%.0fµs)", soloInter, soloLocal)
	}
	if r := soloInter / soloLocal; r > 1.5 {
		t.Errorf("solo interleave penalty %.2f implausibly large", r)
	}
	heavyLocal, heavyInter := lat(12, false), lat(12, true)
	if heavyInter >= heavyLocal {
		t.Errorf("12 tenants: interleaving (%.0fµs) should beat node-local (%.0fµs)", heavyInter, heavyLocal)
	}
	// Compute-bound RMC3 barely notices either way.
	r3Local := Estimate(model.RMC3Small(), Context{Machine: bdw, Batch: 32, Tenants: 1}).TotalUS
	r3Inter := Estimate(model.RMC3Small(), Context{Machine: bdw, Batch: 32, Tenants: 1, NUMAInterleave: true}).TotalUS
	if r3Inter/r3Local > 1.05 {
		t.Errorf("RMC3 interleave penalty %.3f should be marginal", r3Inter/r3Local)
	}
}

// TestTableIIIBottlenecks verifies the µarch-sensitivity summary of
// Table III: MLP-dominated models react to SIMD/core improvements,
// embedding-dominated models to DRAM improvements.
func TestTableIIIBottlenecks(t *testing.T) {
	bdw := arch.Broadwell()

	// Doubling sustained FLOPs must speed RMC3 (MLP-dominated) far more
	// than RMC2 (embedding-dominated).
	fast := bdw
	fast.ComputeEff *= 2
	r3Gain := estimate(model.RMC3Small(), bdw, 16, 1).TotalUS / estimate(model.RMC3Small(), fast, 16, 1).TotalUS
	r2GainCompute := estimate(model.RMC2Small(), bdw, 16, 1).TotalUS / estimate(model.RMC2Small(), fast, 16, 1).TotalUS
	if r3Gain < 1.5 || r2GainCompute > 1.2 {
		t.Errorf("compute scaling: RMC3 gain %.2f (want >1.5), RMC2 gain %.2f (want <1.2)", r3Gain, r2GainCompute)
	}

	// Doubling random DRAM bandwidth must speed RMC2 far more than RMC3.
	mem := bdw
	mem.RandomBWGBs *= 2
	r2Gain := estimate(model.RMC2Small(), bdw, 16, 1).TotalUS / estimate(model.RMC2Small(), mem, 16, 1).TotalUS
	r3GainMem := estimate(model.RMC3Small(), bdw, 16, 1).TotalUS / estimate(model.RMC3Small(), mem, 16, 1).TotalUS
	if r2Gain < 1.5 || r3GainMem > 1.1 {
		t.Errorf("memory scaling: RMC2 gain %.2f (want >1.5), RMC3 gain %.2f (want <1.1)", r2Gain, r3GainMem)
	}
}

// TestAcceleratingFCOnlyIsInsufficient reproduces the paper's headline
// architectural insight: accelerating FC layers alone (e.g. a GEMM
// accelerator) yields limited end-to-end gain for embedding-dominated
// models (§I bullet 4, Takeaway 5).
func TestAcceleratingFCOnlyIsInsufficient(t *testing.T) {
	bdw := arch.Broadwell()
	speedupIfFCFree := func(cfg model.Config) float64 {
		mt := estimate(cfg, bdw, 1, 1)
		fc := mt.ByKind()[nn.KindFC] + mt.ByKind()[nn.KindBatchMM]
		return mt.TotalUS / (mt.TotalUS - fc)
	}
	if s := speedupIfFCFree(model.RMC2Small()); s > 1.4 {
		t.Errorf("free FC would speed RMC2 %.2f×; paper says gains are limited (<1.4×)", s)
	}
	if s := speedupIfFCFree(model.RMC3Small()); s < 5 {
		t.Errorf("free FC should speed RMC3 dramatically, got %.2f×", s)
	}
}
