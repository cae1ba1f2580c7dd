package recsys_test

import (
	"testing"

	"recsys"
)

// TestPublicAPIRoundTrip exercises the facade end-to-end the way the
// README shows: build, infer, estimate, optimize.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := recsys.RMC1Small().Scaled(20)
	m, err := recsys.Build(cfg, recsys.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	req := recsys.NewRandomRequest(cfg, 4, recsys.NewRNG(1))
	ctr := m.CTR(req)
	if len(ctr) != 4 {
		t.Fatalf("CTR len %d", len(ctr))
	}
	for _, p := range ctr {
		if p <= 0 || p >= 1 {
			t.Fatalf("CTR %v out of (0,1)", p)
		}
	}

	mt := recsys.Estimate(recsys.RMC1Small(), recsys.NewPerfContext(recsys.Broadwell(), 16))
	if mt.TotalUS <= 0 {
		t.Fatal("estimate failed")
	}
	if f := mt.KindFraction(recsys.KindFC, recsys.KindBatchMM, recsys.KindSLS); f <= 0.5 {
		t.Fatalf("named kinds cover only %.2f of time", f)
	}

	plan, ok := recsys.BestMachine(recsys.RMC3Small(), recsys.Machines(), 10_000)
	if !ok || plan.Throughput <= 0 {
		t.Fatal("BestMachine failed")
	}
}

func TestPublicAPIMachines(t *testing.T) {
	machines := recsys.Machines()
	if len(machines) != 3 {
		t.Fatal("expected three Table II machines")
	}
	if machines[1].Name != recsys.Broadwell().Name || machines[2].Name != recsys.Skylake().Name {
		t.Fatalf("Table II order: %s, %s, %s", machines[0].Name, machines[1].Name, machines[2].Name)
	}
}

func TestPublicAPITraces(t *testing.T) {
	rng := recsys.NewRNG(5)
	g := recsys.NewUniformIDs(10000, rng)
	if f := recsys.UniqueFraction(g, 1000); f <= 0 || f > 1 {
		t.Fatalf("unique fraction %v", f)
	}
	if len(recsys.ProductionTraces(10000, rng)) != 10 {
		t.Fatal("expected ten production traces")
	}
}

func TestPublicAPIZoo(t *testing.T) {
	defaults := recsys.Defaults()
	if len(defaults) != 3 {
		t.Fatal("expected one default per model class")
	}
	for i, want := range []recsys.Config{recsys.RMC1Small(), recsys.RMC2Small(), recsys.RMC3Small()} {
		if defaults[i].Name != want.Name || defaults[i].Class != want.Class {
			t.Fatalf("default %d is %s, want %s", i, defaults[i].Name, want.Name)
		}
	}
	custom := recsys.Config{
		Name:        "mine",
		Class:       recsys.Custom,
		DenseIn:     8,
		BottomMLP:   []int{16, 8},
		TopMLP:      []int{16, 1},
		Tables:      recsys.UniformTables(2, 100, 8, 4),
		Interaction: recsys.Dot,
	}
	if err := custom.Validate(); err != nil {
		t.Fatalf("custom config: %v", err)
	}
}
