// Bench-regression harness: a tier-1 test that re-measures the
// hot-path benchmarks in-process and fails when the steady state
// allocates or slows down beyond the committed baseline — so a change
// that quietly breaks the zero-allocation contract or regresses the
// serving hot path fails `go test ./...`, not a human reading bench
// output.
//
//	go test -run TestBenchRegression .          # the gate
//	BENCH_JSON=BENCH_current.json go test ...   # also dump measurements
//	UPDATE_BENCH_BASELINE=1 go test ...         # rewrite BENCH_baseline.json
//
// The committed baseline (BENCH_baseline.json) is machine-specific, so
// only ratios are load-bearing: the gate allows regressThreshold× the
// baseline ns/op (taking the best of up to maxAttempts runs to ride
// out scheduler noise) and asserts allocs/op == 0 for the cases that
// carry the allocation contract. After an intentional perf change,
// regenerate the baseline on the reference machine and commit the
// diff.
//
// With runtime kernel dispatch and GOMAXPROCS-wide fan-out, ns/op
// additionally depends on the architecture, the selected kernel tier
// and the core count, so the JSON records all three and the ns/op gate
// warns-and-skips when they differ from the running process (a go-tier
// CI leg must not be held to an avx2 baseline, nor a 1-core box to a
// 2-core one). Allocations are gated only where a case declares
// zeroAlloc; that contract is host-independent and is enforced
// regardless.
package recsys_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"recsys/internal/model"
	"recsys/internal/tensor"
)

// regressThreshold is the allowed ns/op growth over baseline (the
// issue's 25% budget: generous enough for CI noise, tight enough to
// catch an accidental O(n) on the hot path).
const regressThreshold = 1.25

// allCoresThreshold is the allowed growth for the cases whose kernel
// spreads over every core. `go test ./...` runs GOMAXPROCS packages
// side by side, and a kernel that finds one of two cores taken runs up
// to 2× slower through no fault of the code: gemm_parallel_b256
// measured 1.4–1.7× its quiet-host ns/op on every `go test ./...` of
// this 2-vCPU host (EXPERIMENTS.md "Bench gate on 2 cores").
const allCoresThreshold = 2.0

// maxAttempts bounds the re-runs used to shake off scheduler noise:
// only the fastest attempt must clear the bar. Recording a baseline
// takes the fastest of all maxAttempts.
const maxAttempts = 3

const baselineFile = "BENCH_baseline.json"

// benchStat is one case's measurement, in the JSON schema shared by
// BENCH_baseline.json and BENCH_current.json.
type benchStat struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// benchFile is the on-disk schema: the environment the numbers were
// recorded in plus the per-case stats.
type benchFile struct {
	Arch       string               `json:"arch"`
	KernelTier string               `json:"kernel_tier"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Cases      map[string]benchStat `json:"cases"`
}

func readBenchFile(t *testing.T, path string) benchFile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (regenerate with UPDATE_BENCH_BASELINE=1): %v", path, err)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("parsing %s (regenerate with UPDATE_BENCH_BASELINE=1): %v", path, err)
	}
	if f.Cases == nil {
		t.Fatalf("%s has no \"cases\": not a stamped baseline (regenerate with UPDATE_BENCH_BASELINE=1)", path)
	}
	return f
}

// hostMatches reports whether baseline numbers are comparable to this
// process: same GOARCH, same selected kernel tier, same GOMAXPROCS.
func hostMatches(f benchFile) bool {
	return f.Arch == runtime.GOARCH &&
		f.KernelTier == tensor.KernelTier() &&
		f.GOMAXPROCS == runtime.GOMAXPROCS(0)
}

type benchCase struct {
	name string
	run  func(b *testing.B)
	// zeroAlloc marks the cases carrying the allocation contract:
	// allocs/op must be exactly 0 regardless of the ns/op budget.
	zeroAlloc bool
	// allCores marks the cases gated at allCoresThreshold instead of
	// regressThreshold.
	allCores bool
}

// regressionCases lists the guarded hot paths: the packed GEMM and SLS
// kernels (the paper's compute- and memory-bound operator classes),
// the arena-backed full forward pass, the end-to-end engine RankInto
// lifecycle with tracing off, and the HTTP ingest in front of it.
func regressionCases() []benchCase {
	return []benchCase{
		{name: "gemm_hot_b64", allCores: true, run: func(b *testing.B) { benchmarkGemm(b, true) }},
		{name: "sls_serial_b64", run: func(b *testing.B) { benchmarkSLS(b, 1) }},
		{name: "forward_hot_rmc1_b16", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkForwardHot(b, model.RMC1Small().Scaled(10), 16, 1) }},
		{name: "engine_rank_b16", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkEngineRank(b, 16) }},
		// Batching on, the other worker idle: nothing may be held.
		{name: "engine_rank_coalesce_b4", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkEngineRankCoalesce(b, 4) }},
		// One gather per store kind. In-process rows: the plan-free
		// int8 gather on Zipf(1.1) IDs (what rmc2_zipf serves), alone
		// and as the end-to-end lifecycle of an RMC2-shaped int8 model.
		// Rows behind a GatherSource: the dedup plan with a 5%-of-rows
		// row cache, Begin/Finish over a synchronous source (the only
		// place the plan runs; the real tier's framing has no zero-alloc
		// contract). All three carry it.
		{name: "sls_gather_zipf_b64", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkSLSGather(b, slsGatherBench{s: 1.1, int8Table: true}) }},
		{name: "engine_rank_zipf_b16", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkEngineRankZipf(b, 16) }},
		{name: "shard_gather_b64", zeroAlloc: true,
			run: func(b *testing.B) {
				benchmarkSLSGather(b, slsGatherBench{s: 1.1, planned: true, cacheRows: 5000})
			}},
		// The kernel-dispatch acceptance shape: the RM-scale FC GEMM
		// (batch 256, 512→256) on one worker, zero-alloc (arena slab);
		// and the cache-blocked parallel fp32 GEMM at batch 256, which
		// must hold ≥ serial (gemm_rm_b256 measures the serial kernel
		// plus bias/pack plumbing at the same shape). The parallel case
		// cannot carry zeroAlloc: multi-worker fan-out allocates its
		// closure and shard bookkeeping on multi-core hosts.
		{name: "gemm_rm_b256", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkFCRM(b) }},
		{name: "gemm_parallel_b256", allCores: true,
			run: func(b *testing.B) { benchmarkGemmParallel(b) }},
		// The fixed-bucket histogram Observe (binary-searched bucket
		// pick): called on every Rank and every formed batch, and the
		// windowed-quantile substrate of the adaptive scheduling
		// controller.
		{name: "hist_observe", zeroAlloc: true, run: benchmarkHistObserve},
		// HTTP ingest: the in-place POST /rank body parser on the system
		// benchmark's float-heavy and integer-heavy bodies (zero-alloc
		// once its buffers have grown), and the whole handler, body read
		// to response written, whose few allocations are net/http's and
		// the response encoder's.
		{name: "http_decode_rmc3_b16", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkHTTPDecode(b, model.RMC3Small().Scaled(10), 16) }},
		{name: "http_decode_rmc2_b4", zeroAlloc: true,
			run: func(b *testing.B) { benchmarkHTTPDecode(b, model.RMC2Small().Scaled(10), 4) }},
		{name: "http_rank_rmc3_b16",
			run: func(b *testing.B) { benchmarkHTTPRank(b, 16) }},
	}
}

func TestBenchRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("bench regression skipped in -short mode")
	}
	updating := os.Getenv("UPDATE_BENCH_BASELINE") != ""
	var baseline map[string]benchStat
	gateNsOp := true
	if !updating {
		bf := readBenchFile(t, baselineFile)
		baseline = bf.Cases
		if !hostMatches(bf) {
			// Different architecture, kernel tier or core count: the
			// baseline's ns/op is not comparable, so only the
			// host-independent zero-alloc contract is enforced.
			// Regenerate on the reference machine to re-arm the ns/op
			// gate.
			t.Logf("warning: baseline recorded on %s/%s/GOMAXPROCS=%d, running on %s/%s/GOMAXPROCS=%d — ns/op gate skipped",
				bf.Arch, bf.KernelTier, bf.GOMAXPROCS, runtime.GOARCH, tensor.KernelTier(), runtime.GOMAXPROCS(0))
			gateNsOp = false
		}
	}

	current := make(map[string]benchStat)
	for _, c := range regressionCases() {
		base, known := baseline[c.name]
		threshold := regressThreshold
		if c.allCores {
			threshold = allCoresThreshold
		}
		limit := base.NsOp * threshold
		best := benchStat{NsOp: -1}
		for attempt := 1; attempt <= maxAttempts; attempt++ {
			r := testing.Benchmark(c.run)
			if r.N == 0 {
				t.Fatalf("%s: benchmark did not run", c.name)
			}
			ns := float64(r.NsPerOp())
			allocs := r.AllocsPerOp()
			if best.NsOp < 0 || ns < best.NsOp {
				best = benchStat{NsOp: ns, AllocsOp: allocs}
			}
			if best.AllocsOp > allocs {
				best.AllocsOp = allocs
			}
			// Fast exit once the bar is cleared; keep re-running only
			// while the measurement looks like a regression.
			if !updating && (!known || !gateNsOp || best.NsOp <= limit) && (!c.zeroAlloc || best.AllocsOp == 0) {
				break
			}
		}
		current[c.name] = best
		t.Logf("%s: %.0f ns/op, %d allocs/op (baseline %.0f ns/op)", c.name, best.NsOp, best.AllocsOp, base.NsOp)

		if c.zeroAlloc && best.AllocsOp != 0 {
			t.Errorf("%s: %d allocs/op, want 0 — the hot-path allocation contract is broken", c.name, best.AllocsOp)
		}
		if updating {
			continue
		}
		if !known {
			t.Errorf("%s: no baseline entry in %s (regenerate with UPDATE_BENCH_BASELINE=1)", c.name, baselineFile)
			continue
		}
		if gateNsOp && best.NsOp > limit {
			t.Errorf("%s: %.0f ns/op exceeds %.0f (baseline %.0f × %.2f) after %d attempts",
				c.name, best.NsOp, limit, base.NsOp, threshold, maxAttempts)
		}
	}

	if updating {
		writeBenchJSON(t, baselineFile, current)
		t.Logf("baseline rewritten: %s", baselineFile)
	}
	if path := os.Getenv("BENCH_JSON"); path != "" {
		writeBenchJSON(t, path, current)
	}
}

func writeBenchJSON(t *testing.T, path string, stats map[string]benchStat) {
	t.Helper()
	raw, err := json.MarshalIndent(benchFile{
		Arch:       runtime.GOARCH,
		KernelTier: tensor.KernelTier(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cases:      stats,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
