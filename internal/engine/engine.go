// Package engine is a real (not simulated) concurrent inference
// server, layered the way the paper's serving analysis (§III, §V-VI)
// and DeepRecSys motivate:
//
//   - a model registry of named, hot-swappable models, registered at
//     bring-up and never removed (registry.go);
//   - one admission queue and batch former per model, sharing the
//     dispatch policy and its work-conserving cut rule with the serving
//     simulator (queue.go, internal/batch);
//   - a shared pool of executor tokens: a request's own goroutine takes
//     one and drains the queues with a weighted-fair pick until its job
//     is served (executor.go);
//   - an instrumented forward pass whose per-operator spans feed
//     per-model serving stats (stats.go, model.ForwardSpans).
//
// Results are bit-identical to unbatched direct execution because the
// forward pass is row-independent. A single-model caller registers one
// model and names it "" (the default model) in Rank, RankInto and
// ModelStats.
package engine

import (
	"errors"
	"runtime"
	"time"

	"recsys/internal/model"
)

// Options configures the engine.
type Options struct {
	// Workers is the number of forward passes that may run at once,
	// shared by all registered models: the executor's tokens.
	Workers int
	// QueueDepth bounds each model's pending-request queue.
	QueueDepth int
	// MaxBatch is the default per-model cross-request coalescing limit
	// in samples per forward pass; 1 disables batching. Individual
	// models can override it via ModelOptions.Policy.
	MaxBatch int
	// MaxWait is the default bound on how long a batch former holds a
	// partial batch open. A hold happens only while every other token
	// is inside a forward pass and ends when one of them finishes; with
	// a token free a batch dispatches at once (batch.Policy.Hold).
	MaxWait time.Duration
	// IntraOpWorkers is the goroutine fan-out inside one forward pass
	// (packed GEMM and SLS row partitioning). 0 derives
	// GOMAXPROCS/Workers (min 1) so inter-request and intra-op
	// parallelism compose without oversubscribing the socket — the
	// batching-vs-latency trade-off of the paper's §V. 1 disables
	// intra-op parallelism.
	IntraOpWorkers int
	// TraceRing enables per-request lifecycle tracing: each model
	// retains its TraceRing slowest and TraceRing most recent traces
	// (admission, validate, queue wait, batch formation, execute with
	// per-operator spans, and shed/reject terminal events), served by
	// GET /trace/{model} and Engine.Traces. 0 disables tracing — the
	// hot path then performs no trace clock reads or allocations.
	TraceRing int
	// EmbCache sizes the per-model, per-table read-through hot-row
	// cache in front of a model's remote embedding tier
	// (ModelOptions.EmbShards). The zero value disables it, and a model
	// whose tables are in-process never gets one: local rows are read
	// where they lie.
	EmbCache EmbCacheOptions
}

// EmbCacheOptions sizes the embedding hot-row cache (the serving-path
// exploitation of the paper's Figure 14/15 sparse-ID locality, placed
// where a hit saves an RPC's worth of bytes rather than a local load).
// When enabled, every model registered with EmbShards gets one
// lock-striped LRU embcache.Concurrent per embedding table, built at
// Register and kept across hot swaps (the tier's rows never change);
// the per-table hit/miss/evict counters land in Stats.EmbCache and the
// /metrics exposition.
type EmbCacheOptions struct {
	// RowsPerTable is the cache capacity in rows per table, clamped to
	// the table's row count. 0 disables the cache.
	RowsPerTable int
}

// embCachePolicy is the serving caches' eviction policy. Every caller
// ran LRU; the other embcache policies stay for the offline study.
const embCachePolicy = "lru"

// Enabled reports whether the cache is configured on.
func (o EmbCacheOptions) Enabled() bool { return o.RowsPerTable > 0 }

// DefaultOptions returns a 4-worker engine with moderate batching.
func DefaultOptions() Options {
	return Options{Workers: 4, QueueDepth: 256, MaxBatch: 32, MaxWait: 2 * time.Millisecond}
}

// resolveIntraOp applies the IntraOpWorkers default: divide the
// machine between the passes that may run at once.
func resolveIntraOp(opts Options) int {
	if opts.IntraOpWorkers > 0 {
		return opts.IntraOpWorkers
	}
	n := runtime.GOMAXPROCS(0) / opts.Workers
	if n < 1 {
		n = 1
	}
	return n
}

// ErrClosed is returned by Rank after Close.
var ErrClosed = errors.New("engine: server closed")

// ErrBadRequest marks requests refused by admission-time validation
// (shape or sparse-ID range mismatch against the registered model's
// config). It aliases model.ErrBadRequest so either package's sentinel
// works with errors.Is; the HTTP front-end maps the family to 400.
var ErrBadRequest = model.ErrBadRequest

// ErrInference wraps a forward-pass panic recovered by the executor
// — an internal fault (HTTP 500), distinct from the client's
// ErrBadRequest: admission validation should have caught anything the
// request itself could cause.
var ErrInference = errors.New("engine: inference failed")

// DefaultModelName is the conventional name of a single-model
// engine's one registration.
const DefaultModelName = "default"
