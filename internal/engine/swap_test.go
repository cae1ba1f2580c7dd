package engine

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// TestSwapDoesNotWaitForInFlightPass: a swap is one publish, so neither
// it nor a pass on another worker waits behind a pass already in
// flight. One pass of a 2-worker engine is parked inside the serve tap;
// Swap must return while it stays parked, and a second Rank must
// complete on the free worker, scored by the new model. Every wait is
// bounded, so a protocol that blocks either of them fails here instead
// of hanging.
func TestSwapDoesNotWaitForInFlightPass(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	mA := buildModel(t, cfg, 1)
	mB := buildModel(t, cfg, 2)
	refB, err := mB.Clone()
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Options{Workers: 2, QueueDepth: 8, MaxBatch: 1, IntraOpWorkers: 1})
	if err := e.Register("m", mA, ModelOptions{}); err != nil {
		t.Fatal(err)
	}

	// The tap parks the first pass only; later passes run straight through.
	gate := make(chan struct{})
	entered := make(chan struct{})
	var parked atomic.Bool
	e.SetServeTap(func(string, model.Request, []float32) {
		if parked.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
	})
	rng := stats.NewRNG(3)
	ctx := context.Background()
	plug := model.NewRandomRequest(cfg, 2, rng)
	plugDone := make(chan error, 1)
	go func() {
		_, err := e.Rank(ctx, "m", plug)
		plugDone <- err
	}()
	<-entered
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()

	const bound = 2 * time.Second
	swapped := make(chan error, 1)
	go func() { swapped <- e.Swap("m", mB) }()
	select {
	case err := <-swapped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(bound):
		t.Fatalf("Swap still blocked after %v behind a parked pass", bound)
	}

	req := model.NewRandomRequest(cfg, 3, rng)
	type result struct {
		out []float32
		err error
	}
	ranked := make(chan result, 1)
	go func() {
		out, err := e.Rank(ctx, "m", req)
		ranked <- result{out, err}
	}()
	select {
	case r := <-ranked:
		if r.err != nil {
			t.Fatal(r.err)
		}
		want := refB.AppendCTR(nil, req, tensor.NewArena(), 1)
		if len(r.out) != len(want) {
			t.Fatalf("%d scores, want %d", len(r.out), len(want))
		}
		for i := range want {
			if math.Float32bits(r.out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("score %d: %v, want the swapped-in model's %v", i, r.out[i], want[i])
			}
		}
	case <-time.After(bound):
		t.Fatalf("Rank on the free worker still blocked after %v behind a parked pass", bound)
	}
	select {
	case <-plugDone:
		t.Fatal("the parked pass finished before it was released")
	default:
	}
	release()
	if err := <-plugDone; err != nil {
		t.Fatalf("parked request: %v", err)
	}
}
