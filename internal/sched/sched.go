// Package sched plans how inference work is mapped onto servers: batch
// sizes, co-location degrees, and machine choice. It operationalizes
// the paper's central metric — latency-bounded throughput (§III SLA
// discussion, Figures 8 and 10) — and the observation that the optimal
// platform and run-time configuration depend on the model class and the
// latency target (Takeaway 5, §IX).
package sched

import (
	"fmt"

	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/perf"
)

// Plan is one placement decision: run Tenants instances of a model per
// socket, each serving requests of the given batch size.
type Plan struct {
	Machine arch.Machine
	Batch   int
	Tenants int
	// Hyperthread is set when tenants exceed physical cores per socket.
	Hyperthread bool
	// LatencyUS is the per-inference latency under this plan.
	LatencyUS float64
	// Throughput is items (user-item pairs) ranked per second per
	// socket: Tenants × Batch / latency.
	Throughput float64
}

// String renders the plan on one line.
func (p Plan) String() string {
	return fmt.Sprintf("%s batch=%d tenants=%d ht=%v: %.0fµs, %.0f items/s",
		p.Machine.Name, p.Batch, p.Tenants, p.Hyperthread, p.LatencyUS, p.Throughput)
}

// Evaluate computes latency and throughput for a candidate placement.
// Tenants may exceed the socket's physical cores up to 2× (two per core
// via hyperthreading, as in the paper's production experiments).
func Evaluate(cfg model.Config, m arch.Machine, batch, tenants int) Plan {
	if batch <= 0 || tenants <= 0 {
		panic(fmt.Sprintf("sched: batch and tenants must be positive, got %d, %d", batch, tenants))
	}
	if tenants > 2*m.CoresPerSocket {
		panic(fmt.Sprintf("sched: %d tenants exceeds 2× the %d cores of a %s socket", tenants, m.CoresPerSocket, m.Name))
	}
	ht := tenants > m.CoresPerSocket
	mt := perf.Estimate(cfg, perf.Context{
		Machine:     m,
		Batch:       batch,
		Tenants:     tenants,
		Hyperthread: ht,
	})
	return Plan{
		Machine:     m,
		Batch:       batch,
		Tenants:     tenants,
		Hyperthread: ht,
		LatencyUS:   mt.TotalUS,
		Throughput:  float64(tenants) * float64(batch) / (mt.TotalUS * 1e-6),
	}
}

// LatencyBoundedThroughput returns the plan's throughput if it meets
// the SLA, else zero — the metric the paper argues should replace plain
// latency for data-center benchmarking (§III).
func LatencyBoundedThroughput(p Plan, slaUS float64) float64 {
	if p.LatencyUS > slaUS {
		return 0
	}
	return p.Throughput
}

// DefaultBatches are the candidate batch sizes swept by Optimize,
// matching the paper's experiments.
func DefaultBatches() []int { return []int{1, 4, 16, 32, 64, 128, 256} }

// Optimize sweeps batch sizes and co-location degrees on one machine
// and returns the plan with the highest latency-bounded throughput.
// ok is false if no plan meets the SLA.
func Optimize(cfg model.Config, m arch.Machine, slaUS float64, batches []int) (best Plan, ok bool) {
	if len(batches) == 0 {
		batches = DefaultBatches()
	}
	bestTput := 0.0
	for _, b := range batches {
		for n := 1; n <= 2*m.CoresPerSocket; n++ {
			p := Evaluate(cfg, m, b, n)
			if tput := LatencyBoundedThroughput(p, slaUS); tput > bestTput {
				best, bestTput, ok = p, tput, true
			}
		}
	}
	return best, ok
}

// BestMachine optimizes across a heterogeneous set of machines and
// returns the winning plan — the scheduling opportunity the paper
// highlights ("maximize latency-bounded throughput by exploiting server
// heterogeneity", §I).
func BestMachine(cfg model.Config, machines []arch.Machine, slaUS float64) (Plan, bool) {
	var best Plan
	found := false
	bestTput := 0.0
	for _, m := range machines {
		if p, ok := Optimize(cfg, m, slaUS, nil); ok && p.Throughput > bestTput {
			best, bestTput, found = p, p.Throughput, true
		}
	}
	return best, found
}

// LatencyThroughputCurve evaluates a fixed batch across co-location
// degrees 1..maxTenants — the data behind Figure 10.
func LatencyThroughputCurve(cfg model.Config, m arch.Machine, batch, maxTenants int) []Plan {
	if maxTenants <= 0 || maxTenants > 2*m.CoresPerSocket {
		maxTenants = m.CoresPerSocket
	}
	out := make([]Plan, 0, maxTenants)
	for n := 1; n <= maxTenants; n++ {
		out = append(out, Evaluate(cfg, m, batch, n))
	}
	return out
}
