package sched

import (
	"testing"

	"recsys/internal/arch"
	"recsys/internal/model"
)

func TestEvaluateBasics(t *testing.T) {
	p := Evaluate(model.RMC1Small(), arch.Broadwell(), 16, 1)
	if p.LatencyUS <= 0 || p.Throughput <= 0 {
		t.Fatalf("bad plan %+v", p)
	}
	if p.Hyperthread {
		t.Error("1 tenant should not hyperthread")
	}
	want := 16.0 / (p.LatencyUS * 1e-6)
	if diff := p.Throughput - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("throughput %.1f, want %.1f", p.Throughput, want)
	}
	if len(p.String()) == 0 {
		t.Error("empty String()")
	}
}

func TestEvaluateHyperthreadKicksIn(t *testing.T) {
	m := arch.Broadwell()
	base := Evaluate(model.RMC1Small(), m, 16, m.CoresPerSocket)
	ht := Evaluate(model.RMC1Small(), m, 16, m.CoresPerSocket+2)
	if base.Hyperthread {
		t.Error("at physical core count, no hyperthreading")
	}
	if !ht.Hyperthread {
		t.Error("beyond physical cores, hyperthreading must engage")
	}
	if ht.LatencyUS <= base.LatencyUS {
		t.Error("hyperthreading should raise per-model latency (§VI)")
	}
}

func TestEvaluatePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Evaluate(model.RMC1Small(), arch.Broadwell(), 0, 1) },
		func() { Evaluate(model.RMC1Small(), arch.Broadwell(), 1, 0) },
		func() { Evaluate(model.RMC1Small(), arch.Broadwell(), 1, 29) }, // > 2×14
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLatencyBoundedThroughput(t *testing.T) {
	p := Plan{LatencyUS: 100, Throughput: 5000}
	if LatencyBoundedThroughput(p, 200) != 5000 {
		t.Error("plan within SLA should keep its throughput")
	}
	if LatencyBoundedThroughput(p, 50) != 0 {
		t.Error("plan violating SLA should score zero")
	}
}

// TestBatchingRaisesThroughput: batching is the paper's first lever for
// latency-bounded throughput (§III).
func TestBatchingRaisesThroughput(t *testing.T) {
	m := arch.Skylake()
	small := Evaluate(model.RMC3Small(), m, 1, 1)
	big := Evaluate(model.RMC3Small(), m, 128, 1)
	if big.Throughput <= small.Throughput {
		t.Errorf("batch 128 throughput %.0f should beat batch 1 %.0f", big.Throughput, small.Throughput)
	}
}

// TestColocationRaisesThroughput: co-location trades per-model latency
// for aggregate throughput (§VI).
func TestColocationRaisesThroughput(t *testing.T) {
	m := arch.Broadwell()
	solo := Evaluate(model.RMC2Small(), m, 32, 1)
	co := Evaluate(model.RMC2Small(), m, 32, 8)
	if co.Throughput <= solo.Throughput {
		t.Errorf("co-location throughput %.0f should beat solo %.0f", co.Throughput, solo.Throughput)
	}
	if co.LatencyUS <= solo.LatencyUS {
		t.Error("co-location must cost per-model latency")
	}
}

func TestOptimizeRespectsSLA(t *testing.T) {
	m := arch.Broadwell()
	p, ok := Optimize(model.RMC1Small(), m, 10_000, nil)
	if !ok {
		t.Fatal("10ms SLA should be satisfiable for RMC1")
	}
	if p.LatencyUS > 10_000 {
		t.Errorf("optimized plan violates SLA: %.0fµs", p.LatencyUS)
	}
	// A tight SLA forces smaller batches / less co-location.
	tight, ok := Optimize(model.RMC1Small(), m, 200, nil)
	if !ok {
		t.Fatal("200µs SLA should still be satisfiable for RMC1")
	}
	if tight.Throughput > p.Throughput {
		t.Error("tighter SLA cannot increase achievable throughput")
	}
	// An impossible SLA yields no plan.
	if _, ok := Optimize(model.RMC3Small(), m, 1, nil); ok {
		t.Error("1µs SLA should be unsatisfiable")
	}
}

// TestSLADeterminesBestMachine reproduces the paper's conclusion (§IX):
// under a loose SLA the AVX-512 Skylake wins on throughput for
// compute-bound models via large batches, while the low-latency winner
// at unit batch is Broadwell.
func TestSLADeterminesBestMachine(t *testing.T) {
	machines := arch.Machines()
	cfg := model.RMC3Small()
	fastest := machines[0]
	for _, m := range machines {
		if Evaluate(cfg, m, 1, 1).LatencyUS < Evaluate(cfg, fastest, 1, 1).LatencyUS {
			fastest = m
		}
	}
	if fastest.Name != "Broadwell" {
		t.Errorf("unit-batch latency winner = %s, want Broadwell", fastest.Name)
	}
	loose, ok := BestMachine(cfg, machines, 450_000)
	if !ok {
		t.Fatal("450ms SLA should be satisfiable")
	}
	if loose.Machine.Name != "Skylake" {
		t.Errorf("throughput winner under loose SLA = %s, want Skylake", loose.Machine.Name)
	}
	if loose.Batch < 64 {
		t.Errorf("throughput-optimal batch = %d, want large", loose.Batch)
	}
}

func TestLatencyThroughputCurve(t *testing.T) {
	m := arch.Skylake()
	curve := LatencyThroughputCurve(model.RMC2Small(), m, 32, 20)
	if len(curve) != 20 {
		t.Fatalf("curve length %d, want 20", len(curve))
	}
	// Latency grows monotonically with co-location.
	for i := 1; i < len(curve); i++ {
		if curve[i].LatencyUS < curve[i-1].LatencyUS {
			t.Fatalf("latency dropped at N=%d", i+1)
		}
	}
	// Default bound: cores per socket.
	def := LatencyThroughputCurve(model.RMC2Small(), m, 32, 0)
	if len(def) != m.CoresPerSocket {
		t.Errorf("default curve length %d, want %d", len(def), m.CoresPerSocket)
	}
}

func TestDefaultBatches(t *testing.T) {
	b := DefaultBatches()
	if len(b) == 0 || b[0] != 1 {
		t.Error("DefaultBatches should start at 1")
	}
}
