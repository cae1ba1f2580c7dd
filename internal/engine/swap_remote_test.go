package engine

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/shard"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// TestSwapDuringInFlightRemoteGather pins the one-publish swap on the
// remote-shard path: a hot swap made while a request's sharded
// embedding gather is stalled in flight returns at once, without
// waiting for the pass. The in-flight request still completes entirely
// on the OLD model (old dense weights paired with the rows its own
// gather fetched), because the pass loaded the published model once,
// and post-swap traffic, cache-hot rows included, scores
// bit-identically to the NEW model.
func TestSwapDuringInFlightRemoteGather(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	const seed = 7
	// Hedging off: a hedge re-sends the stalled gather and would let it
	// finish early, shrinking the window the swap must be excluded from.
	servers, client := startEmbTier(t, cfg, seed, false, 2, shard.Options{
		HedgeAfter:     -1,
		RequestTimeout: 5 * time.Second,
	})
	eng, err := NewEngine(shardTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	mA := buildShardModel(t, cfg, seed, false)
	refA, err := mA.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// The next generation shares the tier's tables (replicas of seed 7)
	// but carries visibly different dense weights.
	mB, err := mA.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range mB.Top.Layers {
		w := fc.W.Data()
		for i := range w {
			w[i] *= 1.25
		}
		fc.InvalidatePacked()
	}
	refB, err := mB.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("m", mA, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rng := stats.NewRNG(91)
	arena := tensor.NewArena()
	bitsMatch := func(got, want []float32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}

	// Warm the gather path (and the embedding cache) on generation A.
	warm := model.NewRandomRequest(cfg, 2, rng)
	out, err := eng.Rank(ctx, "m", warm)
	if err != nil {
		t.Fatal(err)
	}
	if want := refA.ForwardEx(warm, arena, 1).Data(); !bitsMatch(out, want) {
		t.Fatal("warm-up scores differ from the generation-A reference")
	}

	// Stall every gather on every shard, then launch the victim request:
	// its remote fan-out will be parked mid-pass when the swap arrives.
	const stall = 250 * time.Millisecond
	for _, s := range servers {
		s.SetStall(stall, 1)
	}
	victim := model.NewRandomRequest(cfg, 2, rng)
	var victimDone atomic.Bool
	victimScores := make(chan []float32, 1)
	victimErr := make(chan error, 1)
	go func() {
		out, err := eng.Rank(ctx, "m", victim)
		victimDone.Store(true)
		victimScores <- out
		victimErr <- err
	}()

	// Give the victim time to clear admission and enter its forward pass
	// (batch former max wait is 1ms; the gather then stalls 250ms).
	time.Sleep(50 * time.Millisecond)
	if victimDone.Load() {
		t.Fatal("victim finished before the swap; stall did not hold the gather in flight")
	}
	if err := eng.Swap("m", mB); err != nil {
		t.Fatal(err)
	}
	// The swap is one publish: it must not wait out the victim's pass,
	// whose gather stays parked for another ~200ms.
	if victimDone.Load() {
		t.Fatal("Swap returned only after the in-flight remote gather finished")
	}
	for _, s := range servers {
		s.SetStall(0, 0)
	}
	if err := <-victimErr; err != nil {
		t.Fatalf("victim rank: %v", err)
	}
	if got := <-victimScores; !bitsMatch(got, refA.ForwardEx(victim, arena, 1).Data()) {
		t.Fatal("in-flight request's scores are not pure generation A — swap tore the pass")
	}

	// Post-swap traffic (including replays of pre-swap requests whose
	// rows are cache-hot) must be pure generation B: generation A's
	// dense weights leaking into a B pass would break bit-identity with
	// the detached B reference.
	for i, req := range []model.Request{warm, victim, model.NewRandomRequest(cfg, 2, rng)} {
		out, err := eng.Rank(ctx, "m", req)
		if err != nil {
			t.Fatalf("post-swap rank %d: %v", i, err)
		}
		if want := refB.ForwardEx(req, arena, 1).Data(); !bitsMatch(out, want) {
			t.Fatalf("post-swap request %d is not pure generation B — stale rows paired with the new model", i)
		}
	}
}

// TestSwapKeepsTierShape: the remote tier serves the tables a model was
// registered with, so a swap behind it that widens a table or gives it
// more rows is refused with an error naming the table, and serving
// continues bit-identically on the registered model. The same swaps of
// an in-process model are accepted: its rows may grow and its widths
// change.
func TestSwapKeepsTierShape(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	cfg.Interaction = model.Cat // per-table widths may differ
	const seed = 7
	_, client := startEmbTier(t, cfg, seed, false, 2, shard.Options{})
	eng := testEngine(t, shardTestOptions())
	local := testEngine(t, shardTestOptions())
	mA := buildShardModel(t, cfg, seed, false)
	refA, err := mA.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("m", mA, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}
	if err := local.Register("m", buildShardModel(t, cfg, seed, false), ModelOptions{}); err != nil {
		t.Fatal(err)
	}

	reshaped := func(f func(*model.TableSpec)) model.Config {
		c := cfg
		c.Tables = append([]model.TableSpec(nil), cfg.Tables...)
		f(&c.Tables[2])
		return c
	}
	req := model.NewRandomRequest(cfg, 2, stats.NewRNG(12))
	want := refA.ForwardEx(req, tensor.NewArena(), 1).Data()
	for _, tc := range []struct {
		name string
		cfg  model.Config
	}{
		{"wider", reshaped(func(ts *model.TableSpec) { ts.Dim += 8 })},
		{"more rows", reshaped(func(ts *model.TableSpec) { ts.Rows += 40 })},
	} {
		err := eng.Swap("m", buildShardModel(t, tc.cfg, seed+1, false))
		if err == nil || !strings.Contains(err.Error(), "table 2") {
			t.Fatalf("%s: tier-backed swap error %v, want a refusal naming table 2", tc.name, err)
		}
		if g, _ := eng.Generation("m"); g != 1 {
			t.Fatalf("%s: generation %d after a refused swap, want 1", tc.name, g)
		}
		out, err := eng.Rank(context.Background(), "m", req)
		if err != nil {
			t.Fatalf("%s: rank after the refused swap: %v", tc.name, err)
		}
		for i := range want {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: score %d = %v after the refused swap, want the registered model's %v", tc.name, i, out[i], want[i])
			}
		}
		if err := local.Swap("m", buildShardModel(t, tc.cfg, seed+1, false)); err != nil {
			t.Fatalf("%s: in-process swap refused: %v", tc.name, err)
		}
	}
}
