// Bench-regression harness: a tier-1 test that re-measures the
// hot-path benchmarks in-process and fails when the steady state
// allocates or slows down beyond the committed baseline — so a change
// that quietly breaks the zero-allocation contract or regresses the
// serving hot path fails `go test ./...`, not a human reading bench
// output.
//
//	go test -run TestBenchRegression .               # the gate
//	go test -run 'TestBenchRegression/sls_serial_b64$' . # one case
//	BENCH_JSON=BENCH_current.json go test ...        # also dump measurements
//	UPDATE_BENCH_BASELINE=1 go test ...              # rewrite BENCH_baseline.json
//	BENCH_SLOWDOWN=http_decode_rmc2_b4 go test ...   # must fail (make bench-sensitivity)
//
// Time is gated as a ratio, not as an absolute ns/op. The shared
// 2-vCPU host this baseline is cut on runs every case 1.3–2× slower in
// some minutes than in others, and different kinds of code by
// different amounts (EXPERIMENTS.md "A gate that reads the same every
// hour"), so an ns/op cut in one hour fails or hides a regression in
// the next. Each case is therefore timed beside a reference kernel
// that slows as it does, frozen in this file so no change to the
// program reaches it: FP-bound cases beside a plain-Go register-tiled
// matmul, the fp32 SLS gathers beside a plain-Go walk of their own
// table's rows, and so on (refKind). Reference and case run in
// alternating slices of about sliceTarget (ref, case, ref, …, case,
// ref), each case slice is divided by the mean of the two reference
// slices around it, and the median of pairsPerCase such per-pair
// ratios is compared with the baseline's ratio, cut with the same
// estimator: a case fails past regressThreshold× (allCoresThreshold×
// for the cases that spread over every core). Each case is measured
// once; one that fails is not measured again.
//
// Allocations are judged apart from time and stay absolute:
// allocs/op must be exactly 0 for the cases that carry the
// zero-allocation contract, on any host.
//
// With runtime kernel dispatch and GOMAXPROCS-wide fan-out, a ratio
// still depends on the architecture, the selected kernel tier and the
// core count, so the JSON records all three and the time gate
// warns-and-skips when they differ from the running process (a go-tier
// CI leg must not be held to an avx2 baseline, nor a 1-core box to a
// 2-core one). After an intentional perf change, regenerate the
// baseline (UPDATE_BENCH_BASELINE=1, updateRounds rounds over every
// case) and commit the diff.
package recsys_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/tensor"
)

// regressThreshold is the allowed growth of a case's ratio to its
// reference over the baseline's ratio (a 25% budget: generous enough
// for CI noise, tight enough to catch an accidental O(n) on the hot
// path).
const regressThreshold = 1.25

// allCoresThreshold is the allowed growth for the cases whose kernel
// spreads over every core. `go test ./...` runs GOMAXPROCS packages
// side by side, and a kernel that finds one of two cores taken runs up
// to 2× slower through no fault of the code (EXPERIMENTS.md "Bench
// gate on 2 cores"). Their reference runs on every core too, which
// takes most of that out of the ratio: gemm_parallel_b256 read
// 1.03–1.27× its baseline ratio over 20 `go test ./...` runs, where
// its ns/op read 1.27–2.07×.
const allCoresThreshold = 2.0

// pairsPerCase is the number of case slices the gate times, each
// between two reference slices. It judges their median once, whatever
// it reads: a retry that stopped at the first passing median would
// lean the gate toward passing.
const pairsPerCase = 45

// updateRounds is how many times UPDATE_BENCH_BASELINE=1 measures each
// case, pairsPerCase pairs a round, one round over every case after
// another: the baseline ratio is the median over all those pairs.
const updateRounds = 8

// sliceTarget is the length of one slice: short enough that the host's
// speed is the same for a case slice and the reference slices around
// it, long enough to hold several iterations of the slowest case.
const sliceTarget = 20 * time.Millisecond

const (
	baselineFile   = "BENCH_baseline.json"
	baselineSchema = 3
)

// refKind names the reference kernel a case is timed beside. Each
// case's kind was chosen by measurement, as the one whose ratio spread
// least across this host's fast and slow stretches (EXPERIMENTS.md
// "A gate that reads the same every hour").
type refKind string

const (
	// refCompute is computeRef: throughput-bound plain-Go fp32
	// arithmetic out of L1, for the cases that keep the FP ports busy.
	refCompute refKind = "compute"
	// refInteger is integerRef: digits parsed eight bytes at a time in
	// integer registers.
	refInteger refKind = "integer"
	// refAtomic is atomicRef: locked read-modify-writes behind a short
	// binary search.
	refAtomic refKind = "atomic"
	// refMemory is memoryRef: the case's own table rows, at the case's
	// own IDs, summed in plain Go.
	refMemory refKind = "memory"
)

// benchStat is one case's measurement, in the JSON schema shared by
// BENCH_baseline.json and BENCH_current.json: the median ns of one
// case iteration and of one reference pass, and the median per-pair
// ratio, which is what the gate compares.
type benchStat struct {
	Ref      refKind `json:"ref"`
	RefNs    float64 `json:"ref_ns"`
	NsOp     float64 `json:"ns_op"`
	Ratio    float64 `json:"ratio"`
	AllocsOp int64   `json:"allocs_op"`
}

// benchFile is the on-disk schema: the environment the numbers were
// recorded in plus the per-case stats.
type benchFile struct {
	Schema     int                  `json:"schema"`
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
	if f.Schema != baselineSchema || f.Cases == nil {
		t.Fatalf("%s is schema %d, want %d with \"cases\" (regenerate with UPDATE_BENCH_BASELINE=1)", path, f.Schema, baselineSchema)
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
	// op prepares the hot path (teardown via tb.Cleanup) and returns
	// one iteration of it, the same op its Benchmark times.
	op func(tb testing.TB) func()
	// ref is the reference the case is timed beside.
	ref refKind
	// gather stands in for op in a refMemory case: it also returns the
	// table rows and ID sets the op reads, which memoryRef walks.
	gather func(tb testing.TB) (func(), tableRows)
	// zeroAlloc marks the cases carrying the allocation contract:
	// allocs/op must be exactly 0 regardless of the time gate.
	zeroAlloc bool
	// allCores marks the cases whose kernel spreads over every core:
	// their reference runs on every core too, and they are gated at
	// allCoresThreshold instead of regressThreshold.
	allCores bool
}

// regressionCases lists the guarded hot paths: the packed GEMM and SLS
// kernels (the paper's compute- and memory-bound operator classes),
// the arena-backed full forward pass, the end-to-end engine RankInto
// lifecycle with tracing off, and the HTTP ingest in front of it.
func regressionCases() []benchCase {
	return []benchCase{
		{name: "gemm_hot_b64", ref: refCompute, allCores: true,
			op: func(testing.TB) func() { return gemmOp(true) }},
		{name: "sls_serial_b64", ref: refMemory,
			gather: func(testing.TB) (func(), tableRows) { return slsOp(1) }},
		{name: "forward_hot_rmc1_b16", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() { return forwardHotOp(tb, model.RMC1Small().Scaled(10), 16, 1) }},
		// The shape rmc1_smallreq serves at saturation: 4-item batches,
		// whose FC rows are all m%8 tail rows.
		{name: "forward_hot_rmc1_b4", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() { return forwardHotOp(tb, model.RMC1Small().Scaled(10), 4, 1) }},
		{name: "engine_rank_b16", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() { return engineRankOp(tb, 16) }},
		// Batching on, the other token free: nothing may be held.
		{name: "engine_rank_coalesce_b4", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() { return engineRankCoalesceOp(tb, 4) }},
		// One gather per store kind. In-process rows: the plan-free
		// int8 gather on Zipf(1.1) IDs (what rmc2_zipf serves), alone
		// and as the end-to-end lifecycle of an RMC2-shaped int8 model.
		// Rows behind a GatherSource: the dedup plan with a 5%-of-rows
		// row cache, Begin/Finish over a synchronous source (the only
		// place the plan runs; the real tier's framing has no zero-alloc
		// contract). All three carry it.
		{name: "sls_gather_zipf_b64", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() {
				op, _, _ := slsGatherOp(tb, slsGatherBench{s: 1.1, int8Table: true})
				return op
			}},
		{name: "engine_rank_zipf_b16", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() { return engineRankZipfOp(tb, 16) }},
		{name: "shard_gather_b64", ref: refMemory, zeroAlloc: true,
			gather: func(tb testing.TB) (func(), tableRows) {
				op, _, rows := slsGatherOp(tb, slsGatherBench{s: 1.1, planned: true, cacheRows: 5000})
				return op, rows
			}},
		// The kernel-dispatch acceptance shape: the RM-scale FC GEMM
		// (batch 256, 512→256) on one worker, zero-alloc (arena slab);
		// and the cache-blocked parallel fp32 GEMM at batch 256, which
		// must hold ≥ serial (gemm_rm_b256 measures the serial kernel
		// plus bias/pack plumbing at the same shape). The parallel case
		// cannot carry zeroAlloc: multi-worker fan-out allocates its
		// closure and shard bookkeeping on multi-core hosts.
		{name: "gemm_rm_b256", ref: refCompute, zeroAlloc: true,
			op: func(testing.TB) func() { return fcRMOp() }},
		{name: "gemm_parallel_b256", ref: refCompute, allCores: true,
			op: func(testing.TB) func() { return gemmParallelOp() }},
		// The fixed-bucket histogram Observe (binary-searched bucket
		// pick): called on every Rank and every formed batch, and the
		// windowed-quantile substrate of the adaptive scheduling
		// controller.
		{name: "hist_observe", ref: refAtomic, zeroAlloc: true,
			op: func(testing.TB) func() { return histObserveOp() }},
		// HTTP ingest: the in-place POST /rank body parser on the system
		// benchmark's float-heavy and integer-heavy bodies (zero-alloc
		// once its buffers have grown), and the whole handler, body read
		// to response written, whose few allocations are net/http's and
		// the response encoder's.
		{name: "http_decode_rmc3_b16", ref: refCompute, zeroAlloc: true,
			op: func(tb testing.TB) func() {
				op, _, _ := httpDecodeOp(tb, model.RMC3Small().Scaled(10), 16)
				return op
			}},
		{name: "http_decode_rmc2_b4", ref: refInteger, zeroAlloc: true,
			op: func(tb testing.TB) func() {
				op, _, _ := httpDecodeOp(tb, model.RMC2Small().Scaled(10), 4)
				return op
			}},
		{name: "http_rank_rmc3_b16", ref: refCompute,
			op: func(tb testing.TB) func() {
				op, _ := httpRankOp(tb, 16)
				return op
			}},
	}
}

// gateVerdict is the gate's decision on one case: what fails it, nil
// if nothing does. got is this run's measurement and base the
// baseline's entry (known false: there is none). Allocations are
// judged on their own and on any host; the ratio only when gateTime
// (the baseline's host matches this process).
func gateVerdict(c benchCase, got, base benchStat, known, gateTime bool) []string {
	var fails []string
	if c.zeroAlloc && got.AllocsOp != 0 {
		fails = append(fails, fmt.Sprintf("%d allocs/op, want 0 — the hot-path allocation contract is broken", got.AllocsOp))
	}
	if !known {
		return append(fails, fmt.Sprintf("no baseline entry in %s (regenerate with UPDATE_BENCH_BASELINE=1)", baselineFile))
	}
	if !gateTime {
		return fails
	}
	if base.Ref != c.ref || !(base.Ratio > 0) {
		return append(fails, fmt.Sprintf("baseline entry has ratio %v to reference %q, the case is timed beside %q (regenerate with UPDATE_BENCH_BASELINE=1)",
			base.Ratio, base.Ref, c.ref))
	}
	threshold := regressThreshold
	if c.allCores {
		threshold = allCoresThreshold
	}
	if limit := base.Ratio * threshold; got.Ratio > limit {
		fails = append(fails, fmt.Sprintf("%.4g× the %s reference exceeds %.4g (baseline %.4g × %.2f, %.3g× the baseline): %.0f ns/op beside a %.0f ns reference pass",
			got.Ratio, c.ref, limit, base.Ratio, threshold, got.Ratio/base.Ratio, got.NsOp, got.RefNs))
	}
	return fails
}

func TestBenchRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("bench regression skipped in -short mode")
	}
	updating := os.Getenv("UPDATE_BENCH_BASELINE") != ""
	slowCase := os.Getenv("BENCH_SLOWDOWN")
	if err := checkSlowdown(slowCase); err != nil {
		t.Fatal(err)
	}
	var baseline map[string]benchStat
	// Recording a baseline judges allocations only, and every case.
	gateTime := !updating
	if !updating {
		bf := readBenchFile(t, baselineFile)
		baseline = bf.Cases
		if !hostMatches(bf) {
			// Different architecture, kernel tier or core count: the
			// baseline's ratios are not comparable, so only the
			// host-independent zero-alloc contract is enforced.
			// Regenerate on the reference machine to re-arm the time
			// gate.
			t.Logf("warning: baseline recorded on %s/%s/GOMAXPROCS=%d, running on %s/%s/GOMAXPROCS=%d — time gate skipped",
				bf.Arch, bf.KernelTier, bf.GOMAXPROCS, runtime.GOARCH, tensor.KernelTier(), runtime.GOMAXPROCS(0))
			gateTime = false
		}
	}

	// Recording a baseline measures every case in updateRounds rounds,
	// so that its pairs spread over minutes of the host instead of one
	// stretch; the gate measures each case once. A recording filtered
	// to some cases (-run 'TestBenchRegression/<case>') keeps the other
	// entries.
	rounds := 1
	current := make(map[string]benchStat)
	runs := make(map[string]*pairRun)
	if updating {
		rounds = updateRounds
		if bf, err := os.ReadFile(baselineFile); err == nil {
			var f benchFile
			if json.Unmarshal(bf, &f) == nil && f.Schema == baselineSchema && hostMatches(f) {
				for _, c := range regressionCases() {
					if e, ok := f.Cases[c.name]; ok {
						current[c.name] = e
					}
				}
			}
		}
	}
	for round := 1; round <= rounds; round++ {
		for _, c := range regressionCases() {
			t.Run(c.name, func(t *testing.T) {
				if runs[c.name] == nil {
					runs[c.name] = new(pairRun)
				}
				run := runs[c.name]
				op, ref := setUp(t, c)
				if c.name == slowCase {
					t.Logf("slowed %.2f× by BENCH_SLOWDOWN", slowdownFactor)
					op = slowed(op)
				}
				run.start(op, ref)
				run.measure(pairsPerCase)
				got := run.stat(c)
				current[c.name] = got
				base, known := baseline[c.name]
				t.Logf("%.4g× %s ref (%.0f ns/op, ref %.0f ns; pairs %d, ratio IQR %.3g–%.3g), %d allocs/op; baseline %.4g×",
					got.Ratio, c.ref, got.NsOp, got.RefNs, len(run.ratios),
					quantile(run.ratios, 0.25), quantile(run.ratios, 0.75), got.AllocsOp, base.Ratio)
				for _, f := range gateVerdict(c, got, base, known || updating, gateTime) {
					t.Error(f)
				}
			})
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
		Schema:     baselineSchema,
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

// --- Paired measurement ---

// pairRun is one case measured beside its reference.
type pairRun struct {
	op, ref    func()
	nOp, nRef  int     // iterations per slice
	lastRef    float64 // ns of one reference pass in the slice before the next case slice
	ratios     []float64
	opNs       []float64
	refNs      []float64
	mallocs    uint64
	iterations uint64
}

// start warms op and ref and sizes their slices to sliceTarget.
func (r *pairRun) start(op, ref func()) {
	r.op, r.ref = op, ref
	r.nOp, r.nRef = sliceIters(op), sliceIters(ref)
	runtime.GC()
	r.lastRef = r.refSlice()
}

// measure times pairs more case slices, each followed by a reference
// slice; a case slice's ratio is over the mean of the reference slices
// on either side of it, which cancels a host speed that drifts
// linearly across the pair.
func (r *pairRun) measure(pairs int) {
	var ms runtime.MemStats
	for range pairs {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for range r.nOp {
			r.op()
		}
		opNs := float64(time.Since(start).Nanoseconds()) / float64(r.nOp)
		runtime.ReadMemStats(&ms)
		r.mallocs += ms.Mallocs - before
		r.iterations += uint64(r.nOp)

		refNs := r.refSlice()
		r.ratios = append(r.ratios, opNs/((r.lastRef+refNs)/2))
		r.opNs = append(r.opNs, opNs)
		r.refNs = append(r.refNs, refNs)
		r.lastRef = refNs
	}
}

func (r *pairRun) refSlice() float64 {
	start := time.Now()
	for range r.nRef {
		r.ref()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(r.nRef)
}

// stat is the run so far as a benchStat: medians of ratio, case ns and
// reference ns to 4 significant digits (finer than any difference the
// gate resolves), and allocations over every timed iteration (the
// floor of mallocs / iterations, as testing.B reports them).
func (r *pairRun) stat(c benchCase) benchStat {
	sig4 := func(x float64) float64 {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
		return v
	}
	return benchStat{
		Ref:      c.ref,
		RefNs:    sig4(quantile(r.refNs, 0.5)),
		NsOp:     sig4(quantile(r.opNs, 0.5)),
		Ratio:    sig4(quantile(r.ratios, 0.5)),
		AllocsOp: int64(r.mallocs / r.iterations),
	}
}

// sliceIters runs op until a doubling count takes an eighth of
// sliceTarget, which also warms it, and returns how many iterations
// fill sliceTarget (at least 1).
func sliceIters(op func()) int {
	for n := 1; ; n *= 2 {
		start := time.Now()
		for range n {
			op()
		}
		if d := time.Since(start); d >= sliceTarget/8 {
			return max(1, int(float64(n)*float64(sliceTarget)/float64(d)))
		}
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// --- Reference kernels ---
//
// Frozen here, in plain Go, so that neither kernel dispatch nor any
// change to the program moves them: they measure the host, not the
// code under test.

// setUp prepares c's op and returns it with one pass of its reference
// kernel; for an allCores case, one pass on each of GOMAXPROCS
// goroutines, so that a core taken by another process slows the
// reference as it slows the case.
func setUp(tb testing.TB, c benchCase) (op, ref func()) {
	if c.ref == refMemory {
		op, rows := c.gather(tb)
		return op, memoryRef(rows)
	}
	kernel := map[refKind]func() func(){
		refCompute: func() func() { return computeRef(32) },
		refInteger: integerRef,
		refAtomic:  atomicRef,
	}[c.ref]
	if !c.allCores {
		return c.op(tb), kernel()
	}
	passes := make([]func(), runtime.GOMAXPROCS(0))
	for i := range passes {
		passes[i] = kernel()
	}
	return c.op(tb), func() {
		var wg sync.WaitGroup
		for _, pass := range passes[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass()
			}()
		}
		passes[0]()
		wg.Wait()
	}
}

// computeRef returns one pass of the compute reference: an m×128 by
// 128×64 fp32 matmul in 4×4 register tiles (m a multiple of 4). Its 16
// independent accumulators make it throughput-bound on the FP ports,
// as the packed GEMM is, rather than latency-bound like one
// dot-product chain (which tracked no gated case); at m = 32 its 56 KB
// of operands stay in L1 and L2.
func computeRef(m int) func() {
	const k, n = 128, 64
	r := rand.New(rand.NewSource(1))
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = r.Float32() - 0.5
	}
	for i := range b {
		b[i] = r.Float32() - 0.5
	}
	return func() {
		for i := 0; i < m; i += 4 {
			a0, a1, a2, a3 := a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k], a[(i+2)*k:(i+3)*k], a[(i+3)*k:(i+4)*k]
			for j := 0; j < n; j += 4 {
				var c00, c01, c02, c03, c10, c11, c12, c13 float32
				var c20, c21, c22, c23, c30, c31, c32, c33 float32
				for p := range k {
					bp := b[p*n+j : p*n+j+4 : p*n+j+4]
					b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
					x0, x1, x2, x3 := a0[p], a1[p], a2[p], a3[p]
					c00, c01, c02, c03 = c00+x0*b0, c01+x0*b1, c02+x0*b2, c03+x0*b3
					c10, c11, c12, c13 = c10+x1*b0, c11+x1*b1, c12+x1*b2, c13+x1*b3
					c20, c21, c22, c23 = c20+x2*b0, c21+x2*b1, c22+x2*b2, c23+x2*b3
					c30, c31, c32, c33 = c30+x3*b0, c31+x3*b1, c32+x3*b2, c33+x3*b3
				}
				c[i*n+j], c[i*n+j+1], c[i*n+j+2], c[i*n+j+3] = c00, c01, c02, c03
				c[(i+1)*n+j], c[(i+1)*n+j+1], c[(i+1)*n+j+2], c[(i+1)*n+j+3] = c10, c11, c12, c13
				c[(i+2)*n+j], c[(i+2)*n+j+1], c[(i+2)*n+j+2], c[(i+2)*n+j+3] = c20, c21, c22, c23
				c[(i+3)*n+j], c[(i+3)*n+j+1], c[(i+3)*n+j+2], c[(i+3)*n+j+3] = c30, c31, c32, c33
			}
		}
	}
}

// integerRef returns one pass of the integer reference: the IDs of a
// 16 KB body of comma-separated 1–6 digit numbers, each taken eight
// bytes at a time and folded into its value with shifts and multiplies
// in integer registers.
func integerRef() func() {
	var body []byte
	r := rand.New(rand.NewSource(3))
	for len(body) < 16<<10 {
		body = strconv.AppendInt(body, int64(1+r.Intn(149_999)), 10)
		body = append(body, ',')
	}
	body = append(body, "        "...) // every number has 8 bytes to load
	var sink int                       // keeps the sums live
	return func() {
		const ones, highs = 0x0101010101010101, 0x8080808080808080
		sum := 0
		for i := 0; len(body)-i >= 8; {
			w := binary.LittleEndian.Uint64(body[i:])
			lo := w &^ highs
			nondigit := (w | (lo + 0x46*ones) | ^(lo + 0x50*ones)) & highs
			n := bits.TrailingZeros64(nondigit) >> 3
			if n == 0 {
				i++
				continue
			}
			v := (w & (0x0f * ones)) << (64 - 8*n)
			v = (v * (10<<8 + 1) >> 8) & 0x00ff00ff00ff00ff
			v = (v * (100<<16 + 1) >> 16) & 0x0000ffff0000ffff
			v = v * (10000<<32 + 1) >> 32
			sum += int(v)
			i += n + 1
		}
		sink += sum
	}
}

// atomicRef returns one pass of the atomic reference: 2 048 bucketed
// observations, each a binary search over 36 ascending bounds and three
// atomic adds (bucket, sum, count). Three locked read-modify-writes
// cost most of it, and they slow with the host differently from FP
// arithmetic.
func atomicRef() func() {
	var bounds []int64
	for b := int64(10_000); len(bounds) < 36; b = b * 3 / 2 {
		bounds = append(bounds, b)
	}
	counts := make([]atomic.Int64, len(bounds)+1)
	var sum, count atomic.Int64
	vals := [8]int64{90_000, 180_000, 450_000, 1_000_000, 2_400_000, 9_000_000, 70_000_000, 2_000_000_000}
	return func() {
		for i := range 2048 {
			v := vals[i&7]
			lo, hi := 0, len(bounds)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if v > bounds[mid] {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			counts[lo].Add(1)
			sum.Add(v)
			count.Add(1)
		}
	}
}

// tableRows is what a memory case reads: its fp32 table, row-major
// with dim columns, and the ID sets its iterations cycle through. The
// table's rows are mapped outside the Go heap and unmapped with its W
// (nn.NewEmbeddingTable), which w keeps alive while the reference runs.
type tableRows struct {
	data []float32
	dim  int
	sets [][]int
	w    *tensor.Tensor
}

// memoryRef returns one pass of the memory reference: the rows of one
// of the case's ID sets summed into one row, the sets taken in turn as
// the case's iterations take them. It reads the case's own table at the
// case's own IDs, so it finds in cache what the case finds, and its
// scalar loop is frozen here while the case's gather kernel may change.
// A reference over a buffer of its own, as large as the table, spread
// more against these cases (EXPERIMENTS.md "A gate that reads the same
// every hour").
func memoryRef(rows tableRows) func() {
	acc := make([]float32, rows.dim)
	i := 0
	return func() {
		for _, id := range rows.sets[i%len(rows.sets)] {
			row := rows.data[id*rows.dim : (id+1)*rows.dim]
			for j := range acc {
				acc[j] += row[j]
			}
		}
		i++
		runtime.KeepAlive(rows.w)
	}
}

// --- Sensitivity ---

// slowdownFactor is how much slower BENCH_SLOWDOWN makes the case it
// names: just past regressThreshold, the smallest regression the gate
// is there to catch.
const slowdownFactor = 1.3

// checkSlowdown accepts BENCH_SLOWDOWN's value: empty, or the name of
// one case of regressionCases.
func checkSlowdown(name string) error {
	if name == "" || slices.ContainsFunc(regressionCases(), func(c benchCase) bool { return c.name == name }) {
		return nil
	}
	return fmt.Errorf("BENCH_SLOWDOWN=%q names no case of regressionCases", name)
}

// slowed returns op made slowdownFactor× slower by running op itself
// again (slowdownFactor − 1) of the time on average, so the slowdown
// does the case's own kind of work.
func slowed(op func()) func() {
	var owed float64
	return func() {
		op()
		for owed += slowdownFactor - 1; owed >= 1; owed-- {
			op()
		}
	}
}

// TestGateVerdict pins the gate's decision on synthetic measurements:
// the thresholds, the missing entry, and allocations judged apart from
// time and on any host.
func TestGateVerdict(t *testing.T) {
	plain := benchCase{name: "plain", ref: refCompute}
	zero := benchCase{name: "zero", ref: refCompute, zeroAlloc: true}
	wide := benchCase{name: "wide", ref: refCompute, allCores: true}
	mem := benchCase{name: "mem", ref: refMemory}
	base := benchStat{Ref: refCompute, Ratio: 0.8, AllocsOp: 0}
	// at is a measurement x times the baseline's ratio with allocs
	// allocations a call.
	at := func(c benchCase, x float64, allocs int64) benchStat {
		return benchStat{Ref: c.ref, RefNs: 1000, NsOp: 800 * x, Ratio: 0.8 * x, AllocsOp: allocs}
	}
	for _, tc := range []struct {
		name            string
		c               benchCase
		got, base       benchStat
		known, gateTime bool
		want            []string // a substring of each failure, in order
	}{
		{"1.24x passes", plain, at(plain, 1.24, 0), base, true, true, nil},
		{"1.26x fails", plain, at(plain, 1.26, 0), base, true, true, []string{"exceeds"}},
		{"faster passes", plain, at(plain, 0.5, 0), base, true, true, nil},
		{"allCores 1.26x passes", wide, at(wide, 1.26, 12), base, true, true, nil},
		{"allCores 1.99x passes", wide, at(wide, 1.99, 12), base, true, true, nil},
		{"allCores 2.01x fails", wide, at(wide, 2.01, 12), base, true, true, []string{"exceeds"}},
		{"missing entry fails", plain, at(plain, 1, 0), benchStat{}, false, true, []string{"no baseline entry"}},
		{"missing entry fails on another host", plain, at(plain, 1, 0), benchStat{}, false, false, []string{"no baseline entry"}},
		{"allocs fail at baseline speed", zero, at(zero, 1, 1), base, true, true, []string{"1 allocs/op"}},
		{"allocs and time fail apart", zero, at(zero, 1.3, 3), base, true, true, []string{"3 allocs/op", "exceeds"}},
		{"time fails without allocs", zero, at(zero, 1.3, 0), base, true, true, []string{"exceeds"}},
		{"allocs outside the contract pass", plain, at(plain, 1, 25), base, true, true, nil},
		{"allocs judged on another host", zero, at(zero, 5, 1), base, true, false, []string{"1 allocs/op"}},
		{"time not judged on another host", plain, at(plain, 5, 0), base, true, false, nil},
		{"entry against another reference fails", mem, at(mem, 1, 0), base, true, true, []string{"timed beside \"memory\""}},
		{"entry without a ratio fails", plain, at(plain, 1, 0), benchStat{Ref: refCompute}, true, true, []string{"ratio 0"}},
	} {
		fails := gateVerdict(tc.c, tc.got, tc.base, tc.known, tc.gateTime)
		if len(fails) != len(tc.want) {
			t.Errorf("%s: got %q, want %d failures matching %q", tc.name, fails, len(tc.want), tc.want)
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(fails[i], w) {
				t.Errorf("%s: failure %d is %q, want it to name %q", tc.name, i, fails[i], w)
			}
		}
	}
}

// TestSlowed pins the sensitivity check's slowdown: op runs
// slowdownFactor× as often, spread evenly over the calls.
func TestSlowed(t *testing.T) {
	calls := 0
	op := slowed(func() { calls++ })
	for n := 1; n <= 1000; n++ {
		op()
		if want := float64(n) * slowdownFactor; math.Abs(float64(calls)-want) > 1 {
			t.Fatalf("slowed: %d calls in %d, want %.1f", calls, n, want)
		}
	}
	if err := checkSlowdown("gemm_rm_b256"); err != nil {
		t.Errorf("checkSlowdown(gemm_rm_b256): %v", err)
	}
	if err := checkSlowdown("gemm_rm_b256:1.3"); err == nil {
		t.Error("checkSlowdown accepted a name that is no case")
	}
}
