package scenario_test

import (
	"testing"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/online"
	"recsys/internal/scenario"
	"recsys/internal/stats"
	"recsys/internal/trace"
)

// TestABColocationSplit: two model generations co-located behind the
// A/B router under Poisson traffic. The observed split must track the
// configured 70/30 weights exactly (smooth WRR is deterministic over
// any window of total-weight picks), every request must succeed, and
// each arm's scores must be bitwise identical to its own registered
// generation — co-location never cross-contaminates.
func TestABColocationSplit(t *testing.T) {
	cfg := scenarioConfig()
	prod := buildModel(t, cfg, 1)
	cand := buildModel(t, cfg, 2)
	cand.QuantizeTables() // heterogeneous arms: fp32 prod, int8 canary

	eng, err := engine.NewEngine(scenarioEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("prod", prod, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("cand", cand, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	router, err := online.NewABRouter("prod")
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetArms(
		online.Arm{Name: "prod", Weight: 7},
		online.Arm{Name: "cand", Weight: 3},
	); err != nil {
		t.Fatal(err)
	}

	arrivals, err := trace.NewArrivalSource("poisson", 500, 0, 0, 2, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(scenario.Config{
		Engine:      eng,
		Model:       "prod",
		Rank:        routed(eng, router),
		NewRequest:  func(rng *stats.RNG) model.Request { return model.NewRandomRequest(cfg, 2, rng) },
		Arrivals:    arrivals,
		Requests:    500,
		Timeout:     2 * time.Second,
		SampleEvery: 4,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if res.Shed != 0 {
		t.Fatalf("%d sheds under uncontended Poisson load", res.Shed)
	}

	// Split exactness: WRR gives cand exactly 3 of every 10 picks.
	wantCand := res.Sent * 3 / 10
	if got := res.ServedCount["cand"]; got != wantCand {
		t.Fatalf("cand served %d of %d, want exactly %d (30%%)", got, res.Sent, wantCand)
	}
	if got := res.ServedCount["prod"]; got != res.Sent-wantCand {
		t.Fatalf("prod served %d of %d, want %d", got, res.Sent, res.Sent-wantCand)
	}
	t.Logf("A/B: prod=%d cand=%d of %d, p99=%v", res.ServedCount["prod"], res.ServedCount["cand"], res.Sent, res.P99())

	// Per-arm bit-identity: each sampled request matches the exact
	// generation registered under the arm that served it. References are
	// detached clones — the registered instances carry the engine's row
	// caches.
	sawCand := false
	for _, s := range res.Samples {
		if s.Served == "cand" {
			sawCand = true
		}
	}
	if !sawCand {
		t.Fatal("sampling missed the canary arm entirely")
	}
	prodRef, err := prod.Clone()
	if err != nil {
		t.Fatal(err)
	}
	candRef, err := cand.Clone()
	if err != nil {
		t.Fatal(err)
	}
	scenario.VerifyServedGenerations(t, res.Samples, map[string]*model.Model{
		"prod": prodRef,
		"cand": candRef,
	})
}
