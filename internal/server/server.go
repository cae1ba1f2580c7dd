// Package server simulates the production inference tier: a thread
// pool draining a request queue fed by Poisson arrivals, with
// co-location-dependent service-time variability. It reproduces the
// tail-latency phenomena of §VI-A and Figure 11: multi-modal operator
// latency on inclusive-cache Broadwell under mixed co-location, p99
// blow-up past ~20 co-located jobs on Broadwell, and Skylake's gradual
// degradation. With dynamic batching on (batcher.go) the worker forming
// a batch cuts it by the same rule as the real engine's batch former,
// batch.Policy.Hold: it holds a partial batch open only while every
// other worker is busy, so the simulated and the served queue are one
// mechanism under two clocks.
package server

import (
	"fmt"
	"math"

	"recsys/internal/arch"
	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/stats"
)

// Result summarizes one simulated serving run.
type Result struct {
	// Latencies are end-to-end request latencies (queue wait + service),
	// in microseconds.
	Latencies *stats.Sample
	// Completed counts requests served.
	Completed int
	// SLAViolations counts requests exceeding the SLA.
	SLAViolations int
	// ThroughputQPS is completed requests per simulated second.
	ThroughputQPS float64
}

// GoodputQPS returns throughput counting only requests within SLA —
// latency-bounded throughput measured under real queueing.
func (r Result) GoodputQPS() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.ThroughputQPS * float64(r.Completed-r.SLAViolations) / float64(r.Completed)
}

// SimConfig configures a serving simulation.
type SimConfig struct {
	Model   model.Config
	Machine arch.Machine
	// Batch is the per-request batch size.
	Batch int
	// Workers is the number of model instances (thread-pool size); they
	// are co-located on the socket.
	Workers int
	// QPS is the offered load in requests per second.
	QPS float64
	// Requests is the number of requests to simulate.
	Requests int
	// SLAUS is the latency target in microseconds.
	SLAUS float64
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
}

// Simulate runs a discrete-event simulation of the serving tier:
// Poisson arrivals of Batch items each enter a FIFO queue drained by
// Workers co-located model instances whose service times come from the
// performance model plus production variability. It is the batching
// simulation (batcher.go) with coalescing off: every arrival is its own
// forward pass.
func Simulate(sc SimConfig) Result {
	if sc.Workers <= 0 || sc.Requests <= 0 || sc.Batch <= 0 || sc.QPS <= 0 {
		panic(fmt.Sprintf("server: invalid sim config %+v", sc))
	}
	return simulate(BatcherConfig{SimConfig: sc, Policy: batch.Policy{MaxBatch: 1}}, sc.Batch)
}

// noise models production service-time variability. Its magnitude grows
// with co-location, and much faster on inclusive-LLC machines, whose
// back-invalidations make per-operator time erratic (Figure 11).
type noise struct {
	sigma     float64
	spikeProb float64
	spikeMag  float64
	rng       *stats.RNG
}

// Variability calibration (Figure 11): lognormal jitter whose sigma
// grows per co-located job, plus occasional contention spikes beyond
// ~16 jobs. Inclusive hierarchies get ~3× the growth rate.
const (
	noiseBase            = 0.03
	noisePerJobInclusive = 0.010
	noisePerJobExclusive = 0.0035
	spikeThreshold       = 16
	spikePerJobInclusive = 0.030
	spikePerJobExclusive = 0.008
	spikeMagnitude       = 2.0
)

func newNoise(m arch.Machine, coLocated int, rng *stats.RNG) *noise {
	perJob, spikePerJob := noisePerJobExclusive, spikePerJobExclusive
	if m.L3Inclusive {
		perJob, spikePerJob = noisePerJobInclusive, spikePerJobInclusive
	}
	n := &noise{
		sigma: noiseBase + perJob*float64(coLocated-1),
		rng:   rng,
	}
	if over := coLocated - spikeThreshold; over > 0 {
		n.spikeProb = math.Min(0.5, spikePerJob*float64(over))
	}
	n.spikeMag = spikeMagnitude
	return n
}

// factor samples one multiplicative service-time factor (≥ ~lognormal
// with median 1).
func (n *noise) factor() float64 {
	f := math.Exp(n.sigma * n.rng.NormFloat64())
	if n.spikeProb > 0 && n.rng.Float64() < n.spikeProb {
		f *= n.spikeMag
	}
	return f
}
