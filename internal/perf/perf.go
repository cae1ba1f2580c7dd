// Package perf estimates single-model inference latency on the
// simulated servers of internal/arch. It is the analytic counterpart of
// running the paper's Caffe2 benchmark under `perf`: each operator's
// FLOP and byte counts (internal/nn) are converted to time using the
// machine's sustained compute throughput (SIMD utilization curve ×
// clock), its cache/DRAM bandwidths, and a co-location contention model.
//
// The model reproduces, mechanism by mechanism, the effects the paper
// measures:
//
//   - GEMM time scales with the batch-dependent SIMD utilization, so
//     Broadwell wins at small batch and AVX-512 Skylake at large (§V).
//   - SparseLengthsSum gathers run at random-access bandwidth — LLC
//     speed for tables (or hot sets) that fit the tenant's LLC share,
//     DRAM random speed otherwise (§II-C, Figure 5).
//   - Co-location divides the shared LLC and saturates random DRAM
//     bandwidth, degrading SLS; inclusive hierarchies additionally
//     back-invalidate private caches, degrading FC (§VI, Figures 9-10).
//   - Hyperthreading multiplies FC time by 1.6× and SLS by 1.3× (§VI).
//
// All times are simulated microseconds for one inference of the given
// batch on one core (the paper runs one Caffe2 worker, one MKL thread).
package perf

import (
	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/nn"
)

// Context describes the run-time environment of one model instance.
type Context struct {
	Machine arch.Machine
	// Batch is the number of user-item pairs per inference.
	Batch int
	// Tenants is the number of co-located model instances on the socket
	// (including this one); 1 means no co-location.
	Tenants int
	// Hyperthread places two tenants per physical core (§VI).
	Hyperthread bool
	// HotMass is the fraction of embedding gathers that fall on the hot
	// subset of the table (Figure 14 shows production sparse IDs are far
	// from unique). Zero selects the default 0.95.
	HotMass float64
	// HotFrac is the hot subset's size as a fraction of the table.
	// Zero selects the default 0.10.
	HotFrac float64
	// Int8Embeddings serves embeddings from row-wise int8-quantized
	// tables (nn.QuantizedTable): gather traffic and table footprint
	// shrink by the compression ratio, at a small dequantization cost.
	Int8Embeddings bool
	// NUMAInterleave spreads embedding tables across both sockets'
	// memory controllers instead of allocating node-local. Half the
	// gathers pay the remote (QPI/UPI) latency, but aggregate random
	// bandwidth nearly doubles — a loss for a solo model, a win under
	// heavy co-location.
	NUMAInterleave bool
}

// NUMA calibration: remote random accesses run at remoteRandomFactor of
// local speed; interleaving exposes numaCapacityFactor × the one-socket
// aggregate random capacity.
const (
	remoteRandomFactor = 0.62
	numaCapacityFactor = 1.9
)

// int8CompressionRatio is the fp32→int8 storage/bandwidth saving of
// row-wise quantization (4× on codes, minus per-row scale/offset).
const int8CompressionRatio = 3.8

// NewContext returns a solo, non-hyperthreaded context with default
// locality for the given machine and batch.
func NewContext(m arch.Machine, batch int) Context {
	return Context{Machine: m, Batch: batch, Tenants: 1}
}

func (c Context) withDefaults() Context {
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.HotMass == 0 {
		c.HotMass = 0.95
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.10
	}
	return c
}

// Calibration constants. These are the model's only free parameters;
// each is tied to a specific measurement in the paper and exercised by
// the calibration tests in perf_test.go.
const (
	// opOverheadUS is the framework dispatch cost per operator.
	opOverheadUS = 1.0
	// elementOpsPerCycle is the sustained rate for non-GEMM element-wise
	// work (SLS accumulation, activations): scalar/SSE loops.
	elementOpsPerCycle = 8.0
	// inclusiveFCPenalty is the per-co-tenant multiplicative FC slowdown
	// on inclusive-LLC machines (back-invalidation of private caches).
	// Calibrated to the paper's 1.6× FC degradation at 8 tenants.
	inclusiveFCPenalty = 0.086
	// exclusiveFCPenalty is the same for exclusive-LLC machines.
	exclusiveFCPenalty = 0.012
	// inclusiveFCPenaltyCap / exclusiveFCPenaltyCap bound the slowdowns.
	inclusiveFCPenaltyCap = 2.2
	exclusiveFCPenaltyCap = 1.25
	// randomQueueFactor models DRAM queueing growth per co-tenant for
	// random traffic. Calibrated with socketRandomFrac to the paper's
	// 3× SLS degradation at 8 tenants.
	randomQueueFactor = 0.10
	// socketRandomFrac is the fraction of socket streaming bandwidth
	// sustainable as aggregate random traffic.
	socketRandomFrac = 0.12
	// dramStreamSocketFrac is the fraction of socket bandwidth available
	// to co-located streams in aggregate.
	dramStreamSocketFrac = 0.7
	// htFCFactor and htSLSFactor are the hyperthreading slowdowns of §VI.
	htFCFactor  = 1.6
	htSLSFactor = 1.3
	// llcExhaustionFactor further degrades irregular ops once the
	// per-tenant LLC share cannot hold even the MLP working set — the
	// Skylake latency cliff past ~16 co-located jobs (Figure 10).
	llcExhaustionFactor = 1.6
)

// OpTime is the estimated cost of one operator.
type OpTime struct {
	Name       string
	Kind       nn.Kind
	ComputeUS  float64 // arithmetic time
	MemoryUS   float64 // non-overlapped memory time
	OverheadUS float64 // framework dispatch
	TotalUS    float64
}

// ModelTime is the estimated cost of one inference.
type ModelTime struct {
	Config  model.Config
	Context Context
	Ops     []OpTime
	TotalUS float64
}

// ByKind sums operator time per category (the Figure 7-right breakdown).
func (mt ModelTime) ByKind() map[nn.Kind]float64 {
	out := make(map[nn.Kind]float64)
	for _, op := range mt.Ops {
		out[op.Kind] += op.TotalUS
	}
	return out
}

// KindFraction returns the share of total time spent in the given kinds.
func (mt ModelTime) KindFraction(kinds ...nn.Kind) float64 {
	if mt.TotalUS == 0 {
		return 0
	}
	by := mt.ByKind()
	sum := 0.0
	for _, k := range kinds {
		sum += by[k]
	}
	return sum / mt.TotalUS
}

// Footprint is the memory footprint context an operator sequence runs
// within; it determines where weights and embedding rows are resident.
type Footprint struct {
	// ParamBytes is the MLP (FC) weight footprint.
	ParamBytes float64
	// EmbBytes is the total embedding-table storage.
	EmbBytes float64
	// ActBytes is the per-inference activation working set.
	ActBytes float64
}

// FootprintOf derives the footprint of a model config at a batch size.
func FootprintOf(cfg model.Config, batch int) Footprint {
	if batch <= 0 {
		batch = 1
	}
	return Footprint{
		ParamBytes: float64(cfg.MLPParams()) * 4,
		EmbBytes:   float64(cfg.EmbeddingBytes()),
		ActBytes:   float64(cfg.TopMLPIn()*batch) * 4 * 2,
	}
}

// Estimate computes the latency of one inference of cfg under ctx.
func Estimate(cfg model.Config, ctx Context) ModelTime {
	ctx = ctx.withDefaults()
	ops, total := EstimateOps(cfg.Ops(), FootprintOf(cfg, ctx.Batch), ctx)
	return ModelTime{Config: cfg, Context: ctx, Ops: ops, TotalUS: total}
}

// EstimateOps computes per-operator times for an arbitrary operator
// sequence running within the given footprint — used to study single
// operators (e.g. the co-located FC of Figure 11) outside a full model.
func EstimateOps(ops []nn.Op, fp Footprint, ctx Context) ([]OpTime, float64) {
	ctx = ctx.withDefaults()
	e := newEstimator(fp, ctx)
	var out []OpTime
	total := 0.0
	for _, op := range ops {
		ot := e.opTime(op)
		out = append(out, ot)
		total += ot.TotalUS
	}
	return out, total
}

// estimator carries the per-model derived quantities shared across ops.
type estimator struct {
	cfg Context
	m   arch.Machine

	paramBytes    float64 // whole-model MLP parameter footprint
	embBytes      float64 // whole-model embedding storage
	llcShare      float64 // per-tenant LLC bytes
	llcExhausted  bool    // LLC share below the MLP working set
	weightBW      float64 // GB/s for streaming FC weights
	fcPenalty     float64 // multiplicative FC slowdown from co-location
	effRandomDRAM float64 // GB/s for DRAM-destined gathers under contention
	hotHitFrac    float64 // fraction of the hot set resident in LLC share
}

func newEstimator(fp Footprint, ctx Context) *estimator {
	m := ctx.Machine
	e := &estimator{cfg: ctx, m: m}
	e.paramBytes = fp.ParamBytes
	e.embBytes = fp.EmbBytes
	if ctx.Int8Embeddings {
		e.embBytes /= int8CompressionRatio
	}
	e.llcShare = float64(m.L3.SizeBytes) / float64(ctx.Tenants)

	// The hot working set an inference re-touches: MLP weights plus a
	// batch of activations.
	e.llcExhausted = e.llcShare < 2*(e.paramBytes+fp.ActBytes)

	// Weight streaming source.
	switch {
	case e.paramBytes <= float64(m.L2.SizeBytes):
		e.weightBW = m.L2StreamGBs
	case e.paramBytes <= e.llcShare && !e.llcExhausted:
		e.weightBW = m.L3StreamGBs
	default:
		e.weightBW = minf(m.DRAMStreamGBs, dramStreamSocketFrac*m.DRAMBWGBs/float64(ctx.Tenants))
	}

	// FC co-location penalty (back-invalidation pressure).
	perTenant, limit := exclusiveFCPenalty, exclusiveFCPenaltyCap
	if m.L3Inclusive {
		perTenant, limit = inclusiveFCPenalty, inclusiveFCPenaltyCap
	}
	e.fcPenalty = minf(1+perTenant*float64(ctx.Tenants-1), limit)

	// Random DRAM bandwidth under contention: per-core limit, socket
	// aggregate cap, and queueing growth.
	perCore := m.RandomBWGBs
	socketCap := socketRandomFrac * m.DRAMBWGBs
	if ctx.NUMAInterleave {
		// Half the gathers are remote (harmonic mean of local and
		// remote speeds), but both memory controllers serve traffic.
		perCore = 2 / (1/perCore + 1/(perCore*remoteRandomFactor))
		socketCap *= numaCapacityFactor
	}
	e.effRandomDRAM = minf(perCore, socketCap/float64(ctx.Tenants)) /
		(1 + randomQueueFactor*float64(ctx.Tenants-1))

	// Embedding hot-set residency: the LLC share left after weights.
	hotBytes := e.embBytes * ctx.HotFrac
	avail := e.llcShare - minf(e.paramBytes, e.llcShare)
	if e.llcExhausted {
		avail = 0
	}
	if hotBytes > 0 {
		e.hotHitFrac = clamp01(avail / hotBytes)
	}
	return e
}

// opTime estimates one operator.
func (e *estimator) opTime(op nn.Op) OpTime {
	s := op.Stats(e.cfg.Batch)
	ot := OpTime{Name: op.Name(), Kind: op.Kind(), OverheadUS: opOverheadUS}
	switch op.Kind() {
	case nn.KindFC, nn.KindBatchMM, nn.KindConv, nn.KindRecurrent:
		ot.ComputeUS = s.FLOPs / (e.m.EffectiveGFLOPs(e.cfg.Batch) * 1e3)
		weightUS := s.ParamBytes / e.weightBW * 1e-3
		ioUS := (s.ReadBytes - s.ParamBytes + s.WriteBytes) / e.m.L2StreamGBs * 1e-3
		ot.MemoryUS = weightUS + ioUS
		// Compute and streaming overlap via prefetch; the slower side
		// dominates. Co-location penalties (back-invalidation stalls)
		// apply to the whole op.
		ot.TotalUS = maxf(ot.ComputeUS, ot.MemoryUS) * e.fcPenalty
		if e.cfg.Hyperthread {
			ot.TotalUS *= htFCFactor
		}
	case nn.KindSLS:
		ot.ComputeUS = s.FLOPs / (e.m.FreqGHz * elementOpsPerCycle * 1e3)
		gather := s.ReadBytes
		if e.cfg.Int8Embeddings {
			// Compressed rows move 3.8× fewer bytes; dequantization
			// doubles the element-wise work.
			gather /= int8CompressionRatio
			ot.ComputeUS *= 2
		}
		hit := e.hotHitFrac * e.cfg.HotMass
		llcUS := gather * hit / e.m.LLCRandomGBs * 1e-3
		dramUS := gather * (1 - hit) / e.effRandomDRAM * 1e-3
		ot.MemoryUS = llcUS + dramUS
		if e.llcExhausted {
			ot.MemoryUS *= llcExhaustionFactor
		}
		ot.TotalUS = maxf(ot.ComputeUS, ot.MemoryUS)
		if e.cfg.Hyperthread {
			ot.TotalUS *= htSLSFactor
		}
	default: // Concat, Activation, Other: element-wise data movement
		ot.ComputeUS = s.FLOPs / (e.m.FreqGHz * elementOpsPerCycle * 1e3)
		ot.MemoryUS = (s.ReadBytes + s.WriteBytes) / e.m.L2StreamGBs * 1e-3
		ot.TotalUS = maxf(ot.ComputeUS, ot.MemoryUS)
		if e.cfg.Hyperthread {
			ot.TotalUS *= htSLSFactor
		}
	}
	ot.TotalUS += ot.OverheadUS
	return ot
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
