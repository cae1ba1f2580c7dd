// Package recsys is a library for building, running, and
// architecturally characterizing DNN-based personalized-recommendation
// models, reproducing "The Architectural Implications of Facebook's
// DNN-based Personalized Recommendation" (HPCA 2020).
//
// The package re-exports the public surface of the internal subsystems:
//
//   - Model configuration and execution: Config, Build, Model, Request
//     (internal/model) — real fp32 inference with FC stacks, embedding
//     tables pooled by SparseLengthsSum, and Cat/Dot feature interaction.
//   - The Table I production model classes: RMC1Small..RMC3Large and
//     the MLPerfNCF baseline.
//   - Server architectures of Table II: Haswell, Broadwell, Skylake.
//   - Performance simulation: Estimate computes per-operator inference
//     latency on a machine under batching, co-location, and
//     hyperthreading (internal/perf).
//   - Scheduling: Optimize and BestMachine search batch size,
//     co-location degree, and platform for maximum latency-bounded
//     throughput (internal/sched).
//   - Serving simulation: Simulate runs a thread-pool inference tier
//     with Poisson load and production tail-latency variability
//     (internal/server).
//   - Sparse-ID trace generation for embedding-locality studies
//     (internal/trace).
//   - Serving observability: per-request lifecycle traces and
//     Prometheus-format metrics from the concurrent engine
//     (internal/obs; ServeTrace, ServeEngine.WriteMetrics).
//
// Every experiment in the paper's evaluation can be regenerated with
// cmd/reproduce; see DESIGN.md for the experiment index.
package recsys

import (
	"recsys/internal/arch"
	"recsys/internal/batch"
	"recsys/internal/capacity"
	"recsys/internal/dataset"
	"recsys/internal/dist"
	"recsys/internal/embcache"
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/perf"
	"recsys/internal/profile"
	"recsys/internal/rank"
	"recsys/internal/sched"
	"recsys/internal/server"
	"recsys/internal/stats"
	"recsys/internal/trace"
	"recsys/internal/train"
)

// Model configuration and execution.
type (
	// Config describes a recommendation-model architecture (Figure 13
	// knobs: table shapes, lookups, Bottom/Top MLP widths).
	Config = model.Config
	// TableSpec is one embedding table plus its per-sample lookups.
	TableSpec = model.TableSpec
	// Class identifies the model family (RMC1/RMC2/RMC3/NCF/Custom).
	Class = model.Class
	// Interaction selects Cat or Dot feature combination.
	Interaction = model.Interaction
	// Model is a runnable, materialized recommendation model.
	Model = model.Model
	// Request is one batched inference input.
	Request = model.Request
)

// Model classes and interaction kinds.
const (
	RMC1   = model.RMC1
	RMC2   = model.RMC2
	RMC3   = model.RMC3
	NCF    = model.NCF
	Custom = model.Custom

	Cat = model.Cat
	Dot = model.Dot
)

// Zoo constructors (Table I) and helpers.
var (
	RMC1Small      = model.RMC1Small
	RMC1Large      = model.RMC1Large
	RMC2Small      = model.RMC2Small
	RMC2Large      = model.RMC2Large
	RMC3Small      = model.RMC3Small
	RMC3Large      = model.RMC3Large
	MLPerfNCF      = model.MLPerfNCF
	WideAndDeep    = model.WideAndDeep
	YouTubeRanking = model.YouTubeRanking
	Zoo            = model.Zoo
	Defaults       = model.Defaults
	UniformTables  = model.UniformTables

	// Build materializes a runnable model (weights allocated).
	Build = model.Build
	// NewRandomRequest creates a random batched request for a config.
	NewRandomRequest = model.NewRandomRequest

	// LoadConfig / SaveConfig read and write JSON model configurations.
	LoadConfig = model.LoadConfig
	SaveConfig = model.SaveConfig
	// LoadModel / LoadModelFile read weight checkpoints written with
	// Model.Save / Model.SaveFile.
	LoadModel     = model.Load
	LoadModelFile = model.LoadFile
)

// Server architectures (Table II).
type Machine = arch.Machine

// Machine constructors.
var (
	Haswell   = arch.Haswell
	Broadwell = arch.Broadwell
	Skylake   = arch.Skylake
	Machines  = arch.Machines
	ByName    = arch.ByName
)

// Performance simulation.
type (
	// PerfContext is the run-time environment (machine, batch,
	// co-located tenants, hyperthreading, sparse-ID locality).
	PerfContext = perf.Context
	// ModelTime is a per-operator latency estimate.
	ModelTime = perf.ModelTime
	// OpKind classifies operators for breakdowns.
	OpKind = nn.Kind
)

// Operator kinds for ModelTime.KindFraction.
const (
	KindFC         = nn.KindFC
	KindSLS        = nn.KindSLS
	KindConcat     = nn.KindConcat
	KindBatchMM    = nn.KindBatchMM
	KindActivation = nn.KindActivation
)

// Performance-simulation entry points.
var (
	// Estimate computes one inference's latency under a context.
	Estimate = perf.Estimate
	// NewPerfContext returns a solo context for a machine and batch.
	NewPerfContext = perf.NewContext
)

// Scheduling.
type Plan = sched.Plan

// Scheduling entry points.
var (
	EvaluatePlan             = sched.Evaluate
	Optimize                 = sched.Optimize
	BestMachine              = sched.BestMachine
	LatencyThroughputCurve   = sched.LatencyThroughputCurve
	LatencyBoundedThroughput = sched.LatencyBoundedThroughput
)

// Serving simulation.
type (
	// SimConfig configures a serving-tier simulation.
	SimConfig = server.SimConfig
	// SimResult summarizes a simulated run.
	SimResult = server.Result
)

// Simulate runs the serving-tier simulation.
var Simulate = server.Simulate

// Sparse-ID trace generation.
type IDGenerator = trace.IDGenerator

// Trace-generator constructors.
var (
	NewUniformIDs    = trace.NewUniform
	NewZipfianIDs    = trace.NewZipfian
	NewRepeatWindow  = trace.NewRepeatWindow
	NewReplay        = trace.NewReplay
	UniqueFraction   = trace.UniqueFraction
	ProductionTraces = trace.ProductionTraces
)

// RNG is the deterministic random source used across the library.
type RNG = stats.RNG

// NewRNG returns a deterministic generator for the given seed.
var NewRNG = stats.NewRNG

// Training.
type (
	// Trainer performs SGD steps (BCE loss, sparse embedding grads).
	Trainer = train.Trainer
	// Teacher generates labeled synthetic training data.
	Teacher = train.Teacher
)

// Optimizer applies gradients to dense and sparse parameters.
type Optimizer = train.Optimizer

// Training entry points.
var (
	NewTrainer              = train.NewTrainer
	NewTrainerWithOptimizer = train.NewTrainerWithOptimizer
	NewSGD                  = train.NewSGD
	NewAdaGrad              = train.NewAdaGrad
	NewTeacher              = train.NewTeacher
	// AUC computes the area under the ROC curve.
	AUC = stats.AUC
)

// Concurrent serving (real execution, not simulation).
type (
	// ServeOptions configures the concurrent inference server.
	ServeOptions = engine.Options
	// ServeEmbCacheOptions sizes the per-table read-through hot-row
	// cache in front of a model's remote embedding tier
	// (ServeOptions.EmbCache; models with in-process tables read rows in
	// place and get none).
	ServeEmbCacheOptions = engine.EmbCacheOptions
	// ServeEmbCacheStats are one table's cumulative cache counters,
	// reported in ServeStats.EmbCache and /metrics.
	ServeEmbCacheStats = engine.EmbCacheStats
	// ServeServer is the single-model wrapper around a serving engine.
	ServeServer = engine.Server
	// ServeEngine is the multi-model serving core: model registry,
	// per-model batch formers, shared executor pool.
	ServeEngine = engine.Engine
	// ServeModelOptions configures one registered model (batching
	// policy, scheduling weight).
	ServeModelOptions = engine.ModelOptions
	// ServeStats are cumulative per-model serving counters.
	ServeStats = engine.Stats
	// ServeTrace is one request's lifecycle trace (validate,
	// queue-wait, batch-form, execute stage times plus per-operator
	// spans), retained when ServeOptions.TraceRing > 0.
	ServeTrace = obs.Trace
	// ServeTraceDump is the retained-trace snapshot returned by
	// ServeEngine.Traces and GET /trace/{model}: the N slowest and N
	// most recent traces.
	ServeTraceDump = obs.Dump
)

// Serving entry points.
var (
	// NewServer starts a single-model concurrent inference server.
	NewServer = engine.New
	// NewServeEngine starts an empty multi-model serving engine.
	NewServeEngine = engine.NewEngine
	// DefaultServeOptions returns a 4-worker batching configuration.
	DefaultServeOptions = engine.DefaultOptions
)

// ErrServerClosed is returned by ServeServer.Rank after Close.
var ErrServerClosed = engine.ErrClosed

// ErrModelNotFound is returned for requests naming an unknown model.
var ErrModelNotFound = engine.ErrModelNotFound

// ErrBadRequest marks requests refused by the engine's admission-time
// validation (shape or sparse-ID range mismatch); classify with
// errors.Is.
var ErrBadRequest = engine.ErrBadRequest

// ErrInference wraps a forward-pass fault recovered by an executor
// worker (an engine-internal error, not a client one).
var ErrInference = engine.ErrInference

// ValidateRankRequest checks a request against a model configuration —
// the same admission check ServeEngine.Rank performs: batch positivity,
// dense shape, sparse table count, per-table ID counts, and ID ranges.
// Failures wrap ErrBadRequest.
var ValidateRankRequest = model.ValidateRequest

// Embedding caching (tiered-memory serving).
type (
	// CachePolicy is a fixed-capacity embedding-row cache.
	CachePolicy = embcache.Policy
	// TieredStore models a DRAM cache over NVM.
	TieredStore = embcache.TieredStore
	// ConcurrentRowCache is the sharded, generation-invalidated
	// hot-row cache the planned gather reads through in front of a
	// remote row store (sized by ServeOptions.EmbCache; on a bare op,
	// nn.SLSOp.SetRowStore then SetRowCache).
	ConcurrentRowCache = embcache.Concurrent
	// RowCacheStats are a ConcurrentRowCache's cumulative counters.
	RowCacheStats = embcache.LiveStats
)

// PrefetchModel estimates gather time under software prefetching.
type PrefetchModel = embcache.PrefetchModel

// Embedding-cache entry points.
var (
	NewLRUCache        = embcache.NewLRU
	NewLFUCache        = embcache.NewLFU
	NewFIFOCache       = embcache.NewFIFO
	NewPinnedCache     = embcache.NewPinned
	CacheHitRate       = embcache.HitRate
	DefaultTieredStore = embcache.DefaultTieredStore
	// NewConcurrentRowCache builds the lock-striped serving cache.
	NewConcurrentRowCache = embcache.NewConcurrent
)

// Distributed (sharded) serving.
type (
	// Cluster describes a sharded deployment.
	Cluster = dist.Cluster
	// ShardTime is a distributed-inference latency breakdown.
	ShardTime = dist.Time
)

// Distributed-serving entry points.
var (
	EstimateSharded = dist.Estimate
	PlaceTables     = dist.PlaceTables
	DefaultNetwork  = dist.DefaultNetwork
)

// Dynamic batching.
type (
	BatcherConfig = server.BatcherConfig
	// BatchPolicy is the dispatch policy (batch cap, wait bound) shared
	// by the simulator and the real engine's batch formers.
	BatchPolicy = batch.Policy
)

// SimulateBatched runs the serving simulation with dynamic batching.
var SimulateBatched = server.SimulateBatched

// Quantization.
type QuantizedTable = nn.QuantizedTable

// QuantizeTable converts an fp32 embedding table to row-wise int8.
var QuantizeTable = nn.Quantize

// Click-log datasets (Criteo format).
type (
	// CriteoRecord is one parsed click-log line.
	CriteoRecord = dataset.Record
	// CriteoEncoder maps records onto a model's input shapes.
	CriteoEncoder = dataset.Encoder
)

// Dataset entry points.
var (
	ParseCriteoLine      = dataset.ParseLine
	NewCriteoReader      = dataset.NewReader
	NewCriteoEncoder     = dataset.NewEncoder
	SyntheticCriteoLines = dataset.SyntheticLines
)

// Fleet capacity planning.
type (
	// CapacityDemand is one service to provision.
	CapacityDemand = capacity.Demand
	// CapacityResult is a complete fleet plan.
	CapacityResult = capacity.Result
)

// Capacity-planning entry points.
var (
	PlanCapacity       = capacity.Plan
	HomogeneousSockets = capacity.HomogeneousSockets
	UnlimitedInventory = capacity.Unlimited
)

// Two-stage ranking pipeline (Figure 6).
type (
	// Pipeline is a filtering→ranking cascade.
	Pipeline = rank.Pipeline
	// EnginePipeline is the cascade running through a serving engine.
	EnginePipeline = rank.EnginePipeline
	// RankResult is one served candidate.
	RankResult = rank.Result
)

// Pipeline helpers.
var (
	TopK          = rank.TopK
	SubsetRequest = rank.SubsetRequest
)

// Wall-clock profiling of real execution.
type ExecutionProfile = profile.Profile

// Profiling entry points.
var (
	ProfiledForward = profile.Forward
	ProfileAverage  = profile.Average
)
