package scenario_test

import (
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/scenario"
	"recsys/internal/stack"
	"recsys/internal/stats"
	"recsys/internal/trace"
)

// TestSwapStormLeavesNoGoroutines: the int8 swap storm (engine, serve
// tap, updater cycles fired by the storm, 450 request goroutines) ends
// with Engine.Close, after which nothing it started is still running.
func TestSwapStormLeavesNoGoroutines(t *testing.T) {
	check := goroutineBaseline(t)
	runSwapStorm(t, true, 2) // closes its engine on return
	check()
}

// TestOnlineABLeavesNoGoroutines brings up what `-online -online-ab 30
// -sla 50ms` brings up (stack.Start: engine, controller, click buffer,
// updater loop, A/B router), drives Poisson traffic through the router
// the way loadgen -real drives the engine, and checks that Stack.Close
// stops every loop Start launched.
func TestOnlineABLeavesNoGoroutines(t *testing.T) {
	check := goroutineBaseline(t)
	spec, err := model.ParseSingleSpec("rmc1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	stk, err := stack.Start(stack.Config{
		Models: []model.Spec{spec}, Seed: 1, Workers: 2, MaxBatch: 8, MaxWait: time.Millisecond,
		SLA:    50 * time.Millisecond,
		Online: true, OnlineAB: 30, OnlineInterval: 50 * time.Millisecond,
		OnlineSteps: 2, OnlineBatch: 16, OnlineLR: 0.02, OnlineBuffer: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := trace.NewArrivalSource("poisson", 600, 0, 0, 2, stats.NewRNG(5))
	if err != nil {
		stk.Close()
		t.Fatal(err)
	}
	cfg := spec.Config()
	res, err := scenario.Run(scenario.Config{
		Engine:     stk.Engine,
		Rank:       routed(stk.Engine, stk.Updater.Router()),
		NewRequest: func(rng *stats.RNG) model.Request { return model.NewRandomRequest(cfg, 2, rng) },
		Arrivals:   arrivals,
		Requests:   300,
		Seed:       6,
	})
	stk.Close()
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if st := stk.Updater.Stats(); st.Swaps == 0 || len(res.ServedCount) != 2 {
		t.Fatalf("%d canaries published, arms served %v: the A/B loop never ran", st.Swaps, res.ServedCount)
	}
	check()
}
