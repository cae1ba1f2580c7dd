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

// corruptTopFC simulates a corrupted snapshot: the candidate's final
// top-MLP weights are blown 40× out of distribution (and the packed
// cache dropped so serving would actually use them).
func corruptTopFC(m *model.Model) {
	fc := m.Top.Layers[len(m.Top.Layers)-1]
	w := fc.W.Data()
	for i := range w {
		w[i] *= 40
	}
	fc.InvalidatePacked()
}

// TestRollbackScenario: the held-out quality gate catches a corrupted
// candidate before it ever serves. Cycle 1 publishes cleanly (gen 2);
// cycle 2's candidate is corrupted between quantize and gate and must
// roll back (generation pinned at 2, recsys_online_rollbacks_total=1 on
// the engine's exposition, live traffic still scoring generation 2
// bits); cycle 3 publishes cleanly again (gen 3) and serves its exact
// bits.
func TestRollbackScenario(t *testing.T) {
	cfg := scenarioConfig()
	served := buildModel(t, cfg, 1)
	eng, err := engine.NewEngine(scenarioEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("m", served, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}

	teacher := newTeacher(t, cfg, 7)
	holdout, holdoutLabels := teacher.Sample(128)
	refs := newGenRefs(t, 1, served)
	corrupt := false
	// No stream: cycles are pure snapshot+swap, so every clean
	// candidate's held-out loss equals the baseline exactly and the only
	// thing that can trip the gate is the injected corruption — the test
	// is deterministic by construction.
	upd, err := online.New(eng, buildModel(t, cfg, 1), online.Config{
		Model:         "m",
		Holdout:       holdout,
		HoldoutLabels: holdoutLabels,
		OnSwap:        refs.Record,
		PreSwapHook: func(gen uint64, cand *model.Model) {
			if corrupt {
				corruptTopFC(cand)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AddMetricsWriter(upd.WriteMetrics)

	// Cycle 1: clean publish → generation 2.
	r1, err := upd.RunCycle()
	if err != nil || !r1.Swapped || r1.Generation != 2 {
		t.Fatalf("clean cycle 1: %+v err %v, want swap to gen 2", r1, err)
	}

	// Cycle 2: corrupted candidate → rolled back, nothing published.
	corrupt = true
	r2, err := upd.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.RolledBack || r2.Swapped {
		t.Fatalf("corrupted cycle published: %+v", r2)
	}
	if g, _ := eng.Generation("m"); g != 2 {
		t.Fatalf("generation %d after rollback, want 2", g)
	}

	// The rollback is visible on the engine's own /metrics exposition.
	ms, err := scenario.ScrapeEngine(eng)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ms.Get(`recsys_online_rollbacks_total{model="m"}`); !ok || v != 1 {
		t.Fatalf("recsys_online_rollbacks_total = %v (present=%v), want 1", v, ok)
	}
	if v, ok := ms.Get(`recsys_online_generation{model="m"}`); !ok || v != 2 {
		t.Fatalf("recsys_online_generation = %v (present=%v), want 2", v, ok)
	}

	// Traffic after the rollback still serves generation 2's exact bits
	// — the corrupted weights never reached the serving path.
	driveAndVerify(t, eng, cfg, refs, 2)

	// Cycle 3: clean again → generation 3, serving its exact bits.
	corrupt = false
	r3, err := upd.RunCycle()
	if err != nil || !r3.Swapped || r3.Generation != 3 {
		t.Fatalf("post-rollback cycle: %+v err %v, want swap to gen 3", r3, err)
	}
	driveAndVerify(t, eng, cfg, refs, 3)

	if st := upd.Stats(); st.Rollbacks != 1 || st.Swaps != 2 {
		t.Fatalf("stats %+v, want 1 rollback, 2 swaps", st)
	}
}

// driveAndVerify runs a short burst of traffic and asserts every sample
// bit-matches the expected pinned generation.
func driveAndVerify(t *testing.T, eng *engine.Engine, cfg model.Config, refs *genRefs, wantGen uint64) {
	t.Helper()
	arrivals, err := trace.NewArrivalSource("poisson", 1000, 0, 0, 2, stats.NewRNG(wantGen))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(scenario.Config{
		Engine:      eng,
		Model:       "m",
		NewRequest:  func(rng *stats.RNG) model.Request { return model.NewRandomRequest(cfg, 2, rng) },
		Arrivals:    arrivals,
		Requests:    60,
		Timeout:     2 * time.Second,
		SampleEvery: 2,
		Seed:        wantGen * 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	for i, s := range res.Samples {
		if s.GenBefore != wantGen || s.GenAfter != wantGen {
			t.Fatalf("sample %d saw generation window [%d, %d], want pinned %d", i, s.GenBefore, s.GenAfter, wantGen)
		}
	}
	scenario.VerifyGenerations(t, res.Samples, refs.Snapshot())
}
