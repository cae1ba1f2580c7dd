package trace

import "recsys/internal/stats"

// Arrival is one inference request arrival.
type Arrival struct {
	// TimeUS is the absolute arrival time in microseconds.
	TimeUS float64
	// Batch is the number of user-item pairs in the request.
	Batch int
}

// LoadGenerator produces request arrivals from a Poisson process with
// the configured rate function (arrival.go) — the paper's load model
// for studying latency-bounded throughput under SLA. It is the one
// arrival process: the discrete-event simulator (internal/server)
// reads its times as virtual time, the traffic driver
// (internal/scenario) sleeps until them.
type LoadGenerator struct {
	// Rate is the instantaneous arrival rate.
	Rate RateFunc
	// Batch is the per-request batch size.
	Batch int

	rng *stats.RNG
	now float64
}

// NewLoadGenerator returns the homogeneous generator: a steady qps
// with the given per-request batch size.
func NewLoadGenerator(qps float64, batch int, rng *stats.RNG) *LoadGenerator {
	if qps <= 0 {
		panic("trace: QPS must be positive")
	}
	return NewVariableLoadGenerator(ConstantRate(qps), batch, rng)
}

// NewVariableLoadGenerator returns a generator over rate with the
// given per-request batch size.
func NewVariableLoadGenerator(rate RateFunc, batch int, rng *stats.RNG) *LoadGenerator {
	if rate == nil {
		panic("trace: nil rate function")
	}
	if batch <= 0 {
		panic("trace: batch must be positive")
	}
	return &LoadGenerator{Rate: rate, Batch: batch, rng: rng}
}

// Next returns the next arrival. The gap is exponential with mean
// 1e6/rate(now) microseconds; a rate at or below zero is clamped to
// one query per second rather than stalling the generator forever.
func (g *LoadGenerator) Next() Arrival {
	r := g.Rate(g.now)
	if r <= 0 {
		r = 1
	}
	g.now += g.rng.ExpFloat64() * 1e6 / r
	return Arrival{TimeUS: g.now, Batch: g.Batch}
}

// Take returns the next n arrivals.
func (g *LoadGenerator) Take(n int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
