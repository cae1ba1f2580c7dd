// Package scenario is a reusable chaos/scenario harness for the serving
// stack: a traffic driver that replays an arrival process against an
// engine (or any RankFunc, e.g. one that ranks on an online.ABRouter's
// picks), fault-injection helpers (Storm) that fire hot swaps,
// quantize-swaps, or shard stalls while traffic is in flight, and
// invariant checkers that prove the safety properties the
// online-learning pipeline depends on: no non-shed errors, bounded tail
// latency, per-generation bit-identical scores, and no mixed
// model/cache generations.
//
// Tests compose the three parts: drive traffic with Run, storm faults
// with Storm, then assert over the Result's samples and counters with
// VerifyGenerations / ParseMetrics.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/trace"
)

// RankFunc scores one request, reporting which registry entry served
// it. engine.Rank is adapted automatically when Config.Rank is nil.
type RankFunc func(ctx context.Context, req model.Request) (scores []float32, served string, err error)

// Config parameterizes one traffic run.
type Config struct {
	// Engine serves the traffic (also the generation-counter source).
	Engine *engine.Engine
	// Model is the registry entry to drive ("" = engine default). Used
	// both for the default RankFunc and for generation snapshots.
	Model string
	// Rank overrides the default engine.Rank adapter — e.g. ranking on
	// an A/B router's picks. Generation snapshots still track Model.
	Rank RankFunc
	// NewRequest builds one request; rng is the driver's own (requests
	// are composed serially, so a non-concurrency-safe generator is
	// fine).
	NewRequest func(rng *stats.RNG) model.Request
	// Arrivals paces dispatch by each arrival's absolute TimeUS offset
	// from the run start. Nil dispatches back-to-back.
	Arrivals *trace.LoadGenerator
	// Requests is the number of requests to send (must be positive).
	Requests int
	// Timeout is the per-request context deadline (0 = none).
	Timeout time.Duration
	// SLA is the latency bound WithinSLA counts against (default
	// Timeout; with neither, every success counts).
	SLA time.Duration
	// SampleEvery records every Nth successful request as a Sample for
	// bit-identity verification (default 16; sampling keeps verification
	// cost sublinear in traffic).
	SampleEvery int
	// Seed feeds the driver RNG (request composition).
	Seed uint64
}

// Sample is one recorded request with everything the generation checker
// needs: the exact scores returned and the swap-generation window the
// request was in flight during.
type Sample struct {
	Req       model.Request
	Scores    []float32
	Served    string // registry name that served it (A/B runs)
	GenBefore uint64 // engine generation observed before dispatch
	GenAfter  uint64 // engine generation observed after completion
}

// Result aggregates one run.
type Result struct {
	Sent        int
	OK          int
	Shed        int // context deadline/cancel — admission or deadline shed
	Failed      int // non-shed errors: the "zero" a chaos run must hold
	WithinSLA   int
	Errors      []error        // first few non-shed errors, for the test log
	Latencies   *stats.Sample  // successful-request latencies, in nanoseconds
	ServedCount map[string]int // successful requests by serving model
	Samples     []Sample
	Wall        time.Duration
}

// Goodput is successful requests per wall-clock second.
func (r *Result) Goodput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.OK) / r.Wall.Seconds()
}

// P50 is the median successful-request latency.
func (r *Result) P50() time.Duration { return time.Duration(r.Latencies.Percentile(50)) }

// P99 is the 99th-percentile successful-request latency.
func (r *Result) P99() time.Duration { return time.Duration(r.Latencies.Percentile(99)) }

// Run replays cfg.Requests arrivals against the rank function,
// concurrently with whatever chaos the caller is injecting. Requests
// are composed and timestamped serially on the driver goroutine (so a
// single-RNG generator is safe and GenBefore is well ordered), then
// scored on their own goroutines so a slow pass never blocks the
// arrival process — open-loop load, as in the paper's tail-latency
// methodology.
func Run(cfg Config) (*Result, error) {
	if cfg.Engine == nil {
		return nil, errors.New("scenario: nil engine")
	}
	if cfg.NewRequest == nil {
		return nil, errors.New("scenario: nil NewRequest")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("scenario: Requests must be positive, got %d", cfg.Requests)
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("scenario: negative Timeout %v", cfg.Timeout)
	}
	if cfg.SLA <= 0 {
		cfg.SLA = cfg.Timeout
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	name := cfg.Model
	if name == "" {
		name = cfg.Engine.DefaultModel()
	}
	rank := cfg.Rank
	if rank == nil {
		rank = func(ctx context.Context, req model.Request) ([]float32, string, error) {
			out, err := cfg.Engine.Rank(ctx, name, req)
			return out, name, err
		}
	}

	type outcome struct {
		err     error
		latency time.Duration
		served  string
		sample  *Sample // sampled successes only
	}
	outcomes := make([]outcome, cfg.Requests)
	var wg sync.WaitGroup
	rng := stats.NewRNG(cfg.Seed)
	start := time.Now()
	for i := range outcomes {
		req := cfg.NewRequest(rng)
		if cfg.Arrivals != nil {
			a := cfg.Arrivals.Next()
			due := start.Add(time.Duration(a.TimeUS) * time.Microsecond)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		genB, _ := cfg.Engine.Generation(name)
		wg.Add(1)
		// Each goroutine owns exactly its outcome slot.
		go func(o *outcome, sampled bool) {
			defer wg.Done()
			ctx := context.Background()
			if cfg.Timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
				defer cancel()
			}
			t0 := time.Now()
			scores, served, err := rank(ctx, req)
			o.latency = time.Since(t0)
			o.err, o.served = err, served
			if err == nil && sampled {
				genA, _ := cfg.Engine.Generation(name)
				o.sample = &Sample{
					Req: req, Scores: append([]float32(nil), scores...), Served: served,
					GenBefore: genB, GenAfter: genA,
				}
			}
		}(&outcomes[i], i%cfg.SampleEvery == 0)
	}
	wg.Wait()

	res := &Result{
		Sent: cfg.Requests, Wall: time.Since(start), ServedCount: make(map[string]int),
		Latencies: stats.NewSample(cfg.Requests),
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			if errors.Is(o.err, context.DeadlineExceeded) || errors.Is(o.err, context.Canceled) {
				res.Shed++
			} else {
				res.Failed++
				if len(res.Errors) < 5 {
					res.Errors = append(res.Errors, o.err)
				}
			}
			continue
		}
		res.OK++
		res.ServedCount[o.served]++
		res.Latencies.Add(float64(o.latency))
		if cfg.SLA <= 0 || o.latency <= cfg.SLA {
			res.WithinSLA++
		}
		if o.sample != nil {
			res.Samples = append(res.Samples, *o.sample)
		}
	}
	return res, nil
}
