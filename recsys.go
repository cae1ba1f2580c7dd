// Package recsys is a library for building, running, and
// architecturally characterizing DNN-based personalized-recommendation
// models, reproducing "The Architectural Implications of Facebook's
// DNN-based Personalized Recommendation" (HPCA 2020).
//
// The package re-exports the names the examples and the README's
// quickstart use; every other piece lives in an internal subsystem:
//
//   - Model configuration and execution: Config, Build, Request
//     (internal/model) — real fp32 inference with FC stacks, embedding
//     tables pooled by SparseLengthsSum, and Cat/Dot feature interaction.
//   - The Table I production model classes: RMC1Small, RMC2Small,
//     RMC3Small (Defaults lists them).
//   - Server architectures of Table II: Broadwell, Skylake (Machines
//     lists all three).
//   - Performance simulation: Estimate computes per-operator inference
//     latency on a machine under batching, co-location, and
//     hyperthreading (internal/perf).
//   - Scheduling: Optimize and BestMachine search batch size,
//     co-location degree, and platform for maximum latency-bounded
//     throughput (internal/sched).
//   - Sparse-ID trace generation for embedding-locality studies
//     (internal/trace).
//   - Training, Criteo-format click logs, the concurrent serving engine
//     and the two-stage ranking pipeline of Figure 6.
//
// Every experiment in the paper's evaluation can be regenerated with
// cmd/reproduce; see DESIGN.md for the experiment index.
package recsys

import (
	"recsys/internal/arch"
	"recsys/internal/dataset"
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/perf"
	"recsys/internal/rank"
	"recsys/internal/sched"
	"recsys/internal/stats"
	"recsys/internal/trace"
	"recsys/internal/train"
)

// Model configuration and execution.
type (
	// Config describes a recommendation-model architecture (Figure 13
	// knobs: table shapes, lookups, Bottom/Top MLP widths).
	Config = model.Config
	// Request is one batched inference input.
	Request = model.Request
)

// Model class and interaction kinds.
const (
	Custom = model.Custom

	Cat = model.Cat
	Dot = model.Dot
)

// Table I constructors and model helpers.
var (
	RMC1Small     = model.RMC1Small
	RMC2Small     = model.RMC2Small
	RMC3Small     = model.RMC3Small
	Defaults      = model.Defaults
	UniformTables = model.UniformTables

	// Build materializes a runnable model (weights allocated).
	Build = model.Build
	// NewRandomRequest creates a random batched request for a config.
	NewRandomRequest = model.NewRandomRequest
	// LoadModelFile reads a weight checkpoint written with
	// Model.SaveFile.
	LoadModelFile = model.LoadFile
)

// Server architectures (Table II).
var (
	Broadwell = arch.Broadwell
	Skylake   = arch.Skylake
	Machines  = arch.Machines
)

// PerfContext is the run-time environment of a performance estimate
// (machine, batch, co-located tenants, hyperthreading, sparse-ID
// locality).
type PerfContext = perf.Context

// Operator kinds for ModelTime.KindFraction.
const (
	KindFC      = nn.KindFC
	KindSLS     = nn.KindSLS
	KindBatchMM = nn.KindBatchMM
)

// Performance simulation and scheduling entry points.
var (
	// Estimate computes one inference's latency under a context.
	Estimate = perf.Estimate
	// NewPerfContext returns a solo context for a machine and batch.
	NewPerfContext = perf.NewContext
	Optimize       = sched.Optimize
	BestMachine    = sched.BestMachine
)

// Sparse-ID trace generation.
var (
	NewUniformIDs    = trace.NewUniform
	NewReplay        = trace.NewReplay
	UniqueFraction   = trace.UniqueFraction
	ProductionTraces = trace.ProductionTraces
)

// NewRNG returns the deterministic random source used across the
// library.
var NewRNG = stats.NewRNG

// Training entry points.
var (
	NewTrainer              = train.NewTrainer
	NewTrainerWithOptimizer = train.NewTrainerWithOptimizer
	NewAdaGrad              = train.NewAdaGrad
	NewTeacher              = train.NewTeacher
)

// Concurrent serving: an engine of named models behind one scheduler.
type (
	// ServeOptions configures the engine (executor tokens, queue depth,
	// batching).
	ServeOptions = engine.Options
	// ModelOptions configures one registered model.
	ModelOptions = engine.ModelOptions
)

// NewEngine returns a serving engine with no models; Register adds
// them, and "" names the first in Rank, RankInto and ModelStats.
var NewEngine = engine.NewEngine

// CriteoRecord is one parsed click-log line.
type CriteoRecord = dataset.Record

// Click-log (Criteo format) entry points.
var (
	ParseCriteoLine      = dataset.ParseLine
	NewCriteoEncoder     = dataset.NewEncoder
	SyntheticCriteoLines = dataset.SyntheticLines
)

// Pipeline is the filtering→ranking cascade of Figure 6.
type Pipeline = rank.Pipeline
