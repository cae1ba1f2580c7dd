// Package engine is a real (not simulated) concurrent inference
// server, layered the way the paper's serving analysis (§III, §V-VI)
// and DeepRecSys motivate:
//
//   - a model registry of named, hot-registerable/swappable models
//     (registry.go);
//   - one admission queue and batch former per model, sharing the
//     dispatch policy and its work-conserving cut rule with the serving
//     simulator (queue.go, internal/batch);
//   - a shared executor worker pool that drains every queue with a
//     weighted-fair pick (executor.go);
//   - an instrumented forward pass whose per-operator spans feed
//     per-model serving stats (stats.go, model.ForwardSpans).
//
// Results are bit-identical to unbatched direct execution because the
// forward pass is row-independent. The single-model Server below is a
// thin wrapper over a one-entry registry, preserving the original API.
package engine

import (
	"context"
	"errors"
	"runtime"
	"time"

	"recsys/internal/model"
)

// Options configures the engine.
type Options struct {
	// Workers is the number of parallel executor goroutines shared by
	// all registered models.
	Workers int
	// QueueDepth bounds each model's pending-request queue.
	QueueDepth int
	// MaxBatch is the default per-model cross-request coalescing limit
	// in samples per forward pass; 1 disables batching. Individual
	// models can override it via ModelOptions.Policy.
	MaxBatch int
	// MaxWait is the default bound on how long a batch former holds a
	// partial batch open. A hold happens only while every other worker
	// is inside a forward pass and ends when one of them finishes; with
	// an executor free a batch dispatches at once (batch.Policy.Hold).
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
// machine between the inter-request workers.
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

// ErrInference wraps a forward-pass panic recovered by an executor
// worker — an internal fault (HTTP 500), distinct from the client's
// ErrBadRequest: admission validation should have caught anything the
// request itself could cause.
var ErrInference = errors.New("engine: inference failed")

// DefaultModelName is the registry entry the single-model Server uses.
const DefaultModelName = "default"

// Server serves a single materialized model: a one-entry Engine kept
// for the original single-model API and its callers.
type Server struct {
	eng   *Engine
	model *model.Model
}

// New starts a server for the model. It returns an error on nil model
// or non-positive worker/queue options.
func New(m *model.Model, opts Options) (*Server, error) {
	if m == nil {
		return nil, errors.New("engine: nil model")
	}
	eng, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	if err := eng.Register(DefaultModelName, m, ModelOptions{}); err != nil {
		eng.Close()
		return nil, err
	}
	return &Server{eng: eng, model: m}, nil
}

// Rank scores one batched request, blocking until a worker completes
// it or ctx is done.
func (s *Server) Rank(ctx context.Context, req model.Request) ([]float32, error) {
	return s.eng.Rank(ctx, DefaultModelName, req)
}

// RankInto is Rank with a caller-owned result buffer; see
// Engine.RankInto for the ownership contract.
func (s *Server) RankInto(ctx context.Context, dst []float32, req model.Request) ([]float32, error) {
	return s.eng.RankInto(ctx, DefaultModelName, dst, req)
}

// Close stops accepting requests, drains the queue, and waits for
// workers to finish. Rank calls blocked on a full queue are aborted
// with ErrClosed. Close is idempotent.
func (s *Server) Close() { s.eng.Close() }

// Stats returns a snapshot of the serving counters and latency
// percentiles.
func (s *Server) Stats() Stats {
	st, err := s.eng.ModelStats(DefaultModelName)
	if err != nil {
		return Stats{}
	}
	return st
}
