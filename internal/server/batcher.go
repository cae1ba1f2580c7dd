package server

import (
	"fmt"
	"math"

	"recsys/internal/batch"
	"recsys/internal/perf"
	"recsys/internal/stats"
	"recsys/internal/trace"
)

// BatcherConfig configures a dynamically batching serving tier:
// single-item queries are coalesced into batches of up to
// Policy.MaxBatch. A worker forming a batch takes what is queued and
// dispatches at once while any other worker is idle; it holds a partial
// batch open, for at most Policy.MaxWait, only while every other worker
// is busy (batch.Policy.Hold). This is how production systems convert
// request streams into the large batches that make AVX-512 and
// co-location pay off (§III, §V) without charging the wait to requests
// that arrive at an idle server. The real engine's batch formers ask
// the same batch.Policy, so simulated and measured dispatch decisions
// share one definition.
type BatcherConfig struct {
	SimConfig
	// Policy is the dispatch policy (batch cap and wait bound).
	Policy batch.Policy
}

// SimulateBatched runs the serving simulation with dynamic batching.
// SimConfig.Batch is ignored (arrivals are single queries); QPS is the
// single-query arrival rate.
func SimulateBatched(bc BatcherConfig) Result {
	if bc.Workers <= 0 || bc.Requests <= 0 || bc.QPS <= 0 {
		panic(fmt.Sprintf("server: invalid batcher config %+v", bc))
	}
	if err := bc.Policy.Validate(); err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	return simulate(bc, 1)
}

// simulate draws bc.Requests Poisson arrivals of items items each and
// runs them through the worker pool. The seed splits into the arrival
// stream first and the service-time noise second.
func simulate(bc BatcherConfig, items int) Result {
	rng := stats.NewRNG(bc.Seed)
	events := trace.NewLoadGenerator(bc.QPS, items, rng.Split()).Take(bc.Requests)
	arrivals := make([]float64, len(events))
	for i, ev := range events {
		arrivals[i] = ev.TimeUS
	}
	return runBatched(bc, items, arrivals, rng)
}

// runBatched is the one worker-pool event loop, over an explicit
// arrival-time stream (non-decreasing, in µs) of items items per
// arrival, so dispatch edge cases — simultaneous arrivals, deadline
// ties, holds cut by a peer — can be driven directly. The earliest-free
// worker forms each batch, as the holder of an executor token in the
// real engine does: it takes everything queued at its virtual instant, then asks
// Policy.Hold with the other workers' state at that instant.
func runBatched(bc BatcherConfig, items int, arrivalsUS []float64, rng *stats.RNG) Result {
	noise := newNoise(bc.Machine, bc.Workers, rng.Split())

	// Memoize per-batch-size service latency.
	baseLat := make(map[int]float64, bc.Policy.MaxBatch)
	serviceUS := func(arrivals int) float64 {
		if v, ok := baseLat[arrivals]; ok {
			return v
		}
		v := perf.Estimate(bc.Model, perf.Context{
			Machine:     bc.Machine,
			Batch:       arrivals * items,
			Tenants:     min(bc.Workers, bc.Machine.CoresPerSocket),
			Hyperthread: bc.Workers > bc.Machine.CoresPerSocket,
		}).TotalUS
		baseLat[arrivals] = v
		return v
	}

	// workerFree[w] is the time worker w next becomes idle.
	workerFree := make([]float64, bc.Workers)
	res := Result{Latencies: stats.NewSample(len(arrivalsUS))}
	var lastDone float64

	for i := 0; i < len(arrivalsUS); {
		w := 0
		for k := 1; k < bc.Workers; k++ {
			if workerFree[k] < workerFree[w] {
				w = k
			}
		}
		// Worker w pops arrival i at now and forms [i, j) behind it. A
		// hold, if there is one, starts right here (the first greedy take
		// empties the queue), so its MaxWait cap is known up front.
		now := math.Max(arrivalsUS[i], workerFree[w])
		holdUntil := now + bc.Policy.WaitUS()
		j := i + 1
		for {
			// Greedy: everything that has arrived by now joins, up to
			// the cap (so simultaneous arrivals always share a batch, and
			// one landing exactly when a hold ends is still included).
			for j < len(arrivalsUS) && !bc.Policy.Full(j-i) && arrivalsUS[j] <= now {
				j++
			}
			// nextFree is when the first busy peer's pass ends.
			free, nextFree := 0, math.Inf(1)
			for k, t := range workerFree {
				if k == w {
					continue
				}
				if t <= now {
					free++
				} else if t < nextFree {
					nextFree = t
				}
			}
			if now >= holdUntil || !bc.Policy.Hold(j-i, bc.Workers-1, free) {
				break
			}
			// Hold until something changes: the next arrival, the end of
			// a peer's pass (which frees an executor and cuts the hold),
			// or the MaxWait cap.
			now = math.Min(holdUntil, nextFree)
			if j < len(arrivalsUS) && arrivalsUS[j] < now {
				now = arrivalsUS[j]
			}
		}

		done := now + serviceUS(j-i)*noise.factor()
		workerFree[w] = done
		for k := i; k < j; k++ {
			lat := done - arrivalsUS[k]
			res.Latencies.Add(lat)
			res.Completed++
			if bc.SLAUS > 0 && lat > bc.SLAUS {
				res.SLAViolations++
			}
		}
		if done > lastDone {
			lastDone = done
		}
		i = j
	}
	if lastDone > 0 {
		res.ThroughputQPS = float64(res.Completed) / (lastDone * 1e-6)
	}
	return res
}
