package scenario_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/online"
	"recsys/internal/scenario"
	"recsys/internal/stats"
	"recsys/internal/tensor"
	"recsys/internal/trace"
)

// TestSwapStormFlashCrowd is the headline chaos scenario: a flash-crowd
// arrival process drives the engine while the online updater
// snapshot+quantize+swaps every 50–200 ms, training from a click buffer
// fed by the engine's own serve tap. Invariants held throughout:
//
//   - zero non-shed errors (sheds are legal under a flash crowd);
//   - at least two hot swaps landed while traffic was in flight;
//   - zero rollbacks (training on teacher labels must not regress);
//   - every sampled request's scores are bitwise identical to a single
//     generation in its in-flight window — no torn model state;
//   - the final generation's scores survive a checkpoint round-trip
//     bit-exactly ("freshly loaded copy" acceptance).
//
// Runs fp32 and int8 variants. In the int8 one each swap quantizes the
// candidate into fresh int8 rows, mapped outside the Go heap, and
// retires the generation it replaces, whose rows the finalizer unmaps
// once no forward pass holds them. `make race` runs both under the race
// detector.
func TestSwapStormFlashCrowd(t *testing.T) {
	for _, tc := range []struct {
		name string
		int8 bool
	}{
		{"fp32", false},
		{"int8", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runSwapStorm(t, tc.int8, 1)
		})
	}
}

func runSwapStorm(t *testing.T, int8Tables bool, seed uint64) (*scenario.Result, *online.Updater) {
	t.Helper()
	cfg := scenarioConfig()
	served := buildModel(t, cfg, seed)
	if int8Tables {
		served.QuantizeTables()
	}
	eng, err := engine.NewEngine(scenarioEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("m", served, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}

	teacher := newTeacher(t, cfg, seed+100)
	buf, err := online.NewClickBuffer(cfg, 4096, seed+200)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetServeTap(buf.Tap(teacher))

	// No holdout gate here: early-training loss is noisy and gate
	// behavior is covered deterministically by TestRollbackScenario —
	// the storm's invariants are swap safety, not model quality.
	refs := newGenRefs(t, 1, served)
	upd, err := online.New(eng, buildModel(t, cfg, seed), online.Config{
		Model:         "m",
		Stream:        buf,
		StepsPerCycle: 2,
		BatchSize:     16,
		LR:            0.02,
		OnSwap:        refs.Record,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Chaos: a full train→snapshot→quantize→swap cycle every 50–200 ms,
	// concurrent with the flash crowd.
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	storm := &scenario.Storm{
		Min:  50 * time.Millisecond,
		Max:  200 * time.Millisecond,
		Seed: seed + 300,
		Action: func() error {
			_, err := upd.RunCycle()
			return err
		},
	}
	var fires int
	var stormErr error
	go func() {
		defer close(stormDone)
		fires, stormErr = storm.Run(stop)
	}()

	arrivals, err := trace.NewArrivalSource("flash", 300, 3, 500*time.Millisecond, 2, stats.NewRNG(seed+400))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(scenario.Config{
		Engine:      eng,
		Model:       "m",
		NewRequest:  func(rng *stats.RNG) model.Request { return model.NewRandomRequest(cfg, 2, rng) },
		Arrivals:    arrivals,
		Requests:    450,
		Timeout:     500 * time.Millisecond,
		SampleEvery: 4,
		Seed:        seed + 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	swapsDuring := upd.Stats().Swaps
	close(stop)
	<-stormDone
	if stormErr != nil {
		t.Fatalf("swap storm failed: %v", stormErr)
	}

	requireClean(t, res)
	st := upd.Stats()
	if swapsDuring < 2 {
		t.Fatalf("only %d swaps landed during traffic (storm fired %d times) — not a storm", swapsDuring, fires)
	}
	if st.Rollbacks != 0 {
		t.Fatalf("%d rollbacks with the quality gate disabled", st.Rollbacks)
	}
	if p99 := res.P99(); p99 > 500*time.Millisecond {
		t.Fatalf("p99 %v exceeds the request timeout", p99)
	}
	t.Logf("storm: sent=%d ok=%d shed=%d swaps=%d p50=%v p99=%v goodput=%.0f/s",
		res.Sent, res.OK, res.Shed, swapsDuring, res.P50(), res.P99(), res.Goodput())

	// No mixed model/cache generations anywhere in the sampled traffic.
	scenario.VerifyGenerations(t, res.Samples, refs.Snapshot())

	// The active generation serves bit-identically to a freshly loaded
	// copy of itself.
	gen, err := eng.Generation("m")
	if err != nil {
		t.Fatal(err)
	}
	active := refs.At(gen)
	if active == nil {
		t.Fatalf("no recorded reference for active generation %d", gen)
	}
	fresh, err := scenario.FreshCopy(active)
	if err != nil {
		t.Fatal(err)
	}
	arena := tensor.NewArena()
	probe := model.NewRandomRequest(cfg, 8, stats.NewRNG(seed+600))
	a := active.ForwardEx(probe, arena, 1).Data()
	b := fresh.ForwardEx(probe, arena, 1).Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("active generation differs from its freshly loaded copy at %d: %v vs %v", i, a[i], b[i])
		}
	}
	return res, upd
}

// TestSwapStormGoodputCampaign is the acceptance campaign (gated behind
// SCENARIO_EXPERIMENT=1, run manually or from the experiment target):
// four seeds of the flash-crowd swap storm against a no-swap control,
// reporting the goodput ratio recorded in EXPERIMENTS.md. The 10%
// degradation bound is asserted on the mean across seeds — single runs
// are noisy on shared CI hardware.
func TestSwapStormGoodputCampaign(t *testing.T) {
	if os.Getenv("SCENARIO_EXPERIMENT") == "" {
		t.Skip("set SCENARIO_EXPERIMENT=1 to run the goodput campaign")
	}
	var ratios []float64
	for seed := uint64(1); seed <= 4; seed++ {
		control := runNoSwapControl(t, seed)
		storm, _ := runSwapStorm(t, true, seed)
		ratio := storm.Goodput() / control.Goodput()
		ratios = append(ratios, ratio)
		fmt.Printf("campaign seed=%d control_goodput=%.0f/s storm_goodput=%.0f/s ratio=%.3f storm_p99=%v control_p99=%v\n",
			seed, control.Goodput(), storm.Goodput(), ratio, storm.P99(), control.P99())
	}
	var mean float64
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	fmt.Printf("campaign mean goodput ratio: %.3f over %d seeds\n", mean, len(ratios))
	if mean < 0.9 {
		t.Fatalf("swap-storm goodput degraded beyond 10%%: mean ratio %.3f", mean)
	}
}

// runNoSwapControl replays the same arrival process with no updater —
// the goodput baseline.
func runNoSwapControl(t *testing.T, seed uint64) *scenario.Result {
	t.Helper()
	cfg := scenarioConfig()
	served := buildModel(t, cfg, seed)
	served.QuantizeTables()
	eng, err := engine.NewEngine(scenarioEngineOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("m", served, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	arrivals, err := trace.NewArrivalSource("flash", 300, 3, 500*time.Millisecond, 2, stats.NewRNG(seed+400))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(scenario.Config{
		Engine:      eng,
		Model:       "m",
		NewRequest:  func(rng *stats.RNG) model.Request { return model.NewRandomRequest(cfg, 2, rng) },
		Arrivals:    arrivals,
		Requests:    450,
		Timeout:     500 * time.Millisecond,
		SampleEvery: 4,
		Seed:        seed + 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	return res
}
