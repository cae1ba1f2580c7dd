package online

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/train"
)

func testConfig() model.Config { return model.RMC1Small().Scaled(1000) }

func buildModel(t *testing.T, cfg model.Config, seed uint64) *model.Model {
	t.Helper()
	m, err := model.Build(cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.NewEngine(engine.Options{Workers: 2, QueueDepth: 32, MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// add copies every sample of a labeled request into b, as its serve
// tap does.
func add(b *ClickBuffer, req model.Request, labels []float32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addLocked(req, labels)
}

// TestClickBufferCopyAndRing: the buffer deep-copies what it stores
// (mutating the fed request later must not corrupt it), refuses batches
// it cannot fill, and evicts oldest-first once full.
func TestClickBufferCopyAndRing(t *testing.T) {
	cfg := testConfig()
	buf, err := NewClickBuffer(cfg, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	if _, _, ok := buf.Sample(1); ok {
		t.Fatal("empty buffer yielded a sample")
	}

	req := model.NewRandomRequest(cfg, 4, rng)
	labels := []float32{1, 0, 1, 0}
	add(buf, req, labels)
	want := req.Dense.Row(0)[0]
	// Mutate the source after Add: the buffer must have copied.
	req.Dense.Row(0)[0] = want + 100
	req.SparseIDs[0][0] = 0

	got, gl, ok := buf.Sample(4)
	if !ok {
		t.Fatal("buffer with 4 samples refused batch of 4")
	}
	if len(gl) != 4 || got.Batch != 4 {
		t.Fatalf("sample shape: batch %d labels %d", got.Batch, len(gl))
	}
	for i := 0; i < got.Batch; i++ {
		if v := got.Dense.Row(i)[0]; v == want+100 {
			t.Fatal("buffer aliased the fed request's dense tensor")
		}
	}
	if _, _, ok := buf.Sample(5); ok {
		t.Fatal("buffer with 4 samples filled a batch of 5")
	}

	// Overfill: ring keeps the newest 8 of 12; dense col 0 is stamped so
	// evicted samples are detectable.
	for i := 0; i < 12; i++ {
		r := model.NewRandomRequest(cfg, 1, rng)
		r.Dense.Row(0)[0] = float32(1000 + i)
		add(buf, r, []float32{1})
	}
	if buf.Len() != 8 {
		t.Fatalf("ring holds %d samples, want 8", buf.Len())
	}
	s, _, _ := buf.Sample(8)
	for i := 0; i < 8; i++ {
		if v := s.Dense.Row(i)[0]; v < 1000+4 {
			t.Fatalf("sampled evicted stamp %v; oldest 4 should be gone", v)
		}
	}
	if buf.Fed() != 4+12 {
		t.Fatalf("Fed() = %d, want 16", buf.Fed())
	}
}

// rankRouted ranks req the way serve routes a bare POST /rank: on the
// arm r.Pick returns. It returns that arm.
func rankRouted(t *testing.T, eng *engine.Engine, r *ABRouter, req model.Request) string {
	t.Helper()
	arm := r.Pick()
	if _, err := eng.Rank(context.Background(), arm, req); err != nil {
		t.Fatalf("rank on arm %q: %v", arm, err)
	}
	return arm
}

// TestABRouterSplit: smooth WRR realizes the configured split exactly
// over any multiple of the total weight, and every pick ranks through
// the engine.
func TestABRouterSplit(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	if err := eng.Register("prod", buildModel(t, cfg, 1), engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("cand", buildModel(t, cfg, 2), engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := NewABRouter("prod")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetArms(Arm{Name: "prod", Weight: 7}, Arm{Name: "cand", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		rankRouted(t, eng, r, model.NewRandomRequest(cfg, 1, rng))
	}
	if prod, cand := r.pickCount("prod"), r.pickCount("cand"); prod != 70 || cand != 30 {
		t.Fatalf("split prod=%d cand=%d, want prod=70 cand=30", prod, cand)
	}

	// Invalid arm sets are rejected.
	if _, err := NewABRouter(""); err == nil {
		t.Fatal("router without a primary accepted")
	}
	if err := r.SetArms(); err == nil {
		t.Fatal("empty arm set accepted")
	}
	if err := r.SetArms(Arm{Name: "prod", Weight: 0}); err == nil {
		t.Fatal("zero-weight arm accepted")
	}
}

// TestUpdaterLearns: cycles driven off teacher-labeled traffic reduce
// held-out loss, bump the engine generation each swap, and the served
// model scores bit-identically to a fresh clone of the candidate.
func TestUpdaterLearns(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	served := buildModel(t, cfg, 1)
	if err := eng.Register("m", served, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	teacher, err := train.NewTeacher(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	holdout, holdoutLabels := teacher.Sample(128)

	buf, err := NewClickBuffer(cfg, 4096, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the buffer directly (the serve-tap path is exercised by the
	// engine tap test and the scenario suite).
	rng := stats.NewRNG(13)
	for i := 0; i < 64; i++ {
		req := model.NewRandomRequest(cfg, 16, rng)
		add(buf, req, teacher.Label(req))
	}

	upd, err := New(eng, buildModel(t, cfg, 1), Config{
		Model:         "m",
		Stream:        buf,
		Holdout:       holdout,
		HoldoutLabels: holdoutLabels,
		StepsPerCycle: 16,
		BatchSize:     32,
		LR:            0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := upd.Stats().BaselineLoss

	var last CycleResult
	for i := 0; i < 6; i++ {
		last, err = upd.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if !last.Swapped || last.RolledBack {
			t.Fatalf("cycle %d: %+v, want clean swap", i, last)
		}
		if last.Steps != 16 {
			t.Fatalf("cycle %d took %d steps, want 16", i, last.Steps)
		}
	}
	if g, _ := eng.Generation("m"); g != 7 {
		t.Fatalf("generation %d after 6 swaps, want 7", g)
	}
	if last.Generation != 7 {
		t.Fatalf("result generation %d, want 7", last.Generation)
	}
	if float64(last.HoldoutLoss) >= first {
		t.Fatalf("holdout loss did not improve: %v -> %v", first, last.HoldoutLoss)
	}
	st := upd.Stats()
	if st.Swaps != 6 || st.Rollbacks != 0 || st.Steps != 96 {
		t.Fatalf("stats %+v, want 6 swaps, 0 rollbacks, 96 steps", st)
	}

	// The engine now serves exactly the published candidate bits.
	cur, err := eng.Model("m")
	if err != nil {
		t.Fatal(err)
	}
	probe := model.NewRandomRequest(cfg, 8, stats.NewRNG(99))
	a := cur.CTR(probe)
	ref, err := cur.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b := ref.CTR(probe)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("served model differs from its clone at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestUpdaterQuantizeAuto: when the served model is int8, candidates
// are converted to int8 and stay int8 across swaps while the fp32 twin
// trains; a twin with int8 tables is refused.
func TestUpdaterQuantizeAuto(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	served := buildModel(t, cfg, 1)
	served.QuantizeTables()
	if err := eng.Register("m", served, engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, served, Config{Model: "m"}); !errors.Is(err, model.ErrInt8Only) {
		t.Fatalf("New over an int8 twin: err %v, want model.ErrInt8Only", err)
	}
	upd, err := New(eng, buildModel(t, cfg, 1), Config{Model: "m"}) // nil stream: swap-only cycles
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upd.RunCycle(); err != nil {
		t.Fatal(err)
	}
	cur, err := eng.Model("m")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Quantized() || cur.SLS[0].Table.W != nil {
		t.Fatal("QuantizeAuto candidate does not hold int8 tables alone")
	}
	st := upd.Stats()
	if st.Swaps != 1 || st.Starved != 1 {
		t.Fatalf("stats %+v, want 1 swap, 1 starved cycle", st)
	}
}

// TestUpdaterRollback: a candidate corrupted between quantize and gate
// is rejected — generation does not advance, the twin reverts, and the
// next clean candidate scores as if the corruption never happened.
func TestUpdaterRollback(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	if err := eng.Register("m", buildModel(t, cfg, 1), engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	teacher, err := train.NewTeacher(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	holdout, holdoutLabels := teacher.Sample(128)

	corrupt := false
	upd, err := New(eng, buildModel(t, cfg, 1), Config{
		Model:         "m",
		Holdout:       holdout,
		HoldoutLabels: holdoutLabels,
		PreSwapHook: func(gen uint64, cand *model.Model) {
			if corrupt {
				sabotage(t, cand)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle 1 (clean, no stream): swaps, gen 2.
	r1, err := upd.RunCycle()
	if err != nil || !r1.Swapped {
		t.Fatalf("clean cycle: %+v err %v", r1, err)
	}
	cleanLoss := r1.HoldoutLoss

	// Cycle 2 (corrupted): rolled back, gen stays 2.
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
	if r2.HoldoutLoss <= cleanLoss {
		t.Fatalf("corruption did not raise holdout loss: %v vs %v", r2.HoldoutLoss, cleanLoss)
	}

	// Cycle 3 (clean again): the reverted twin yields the same loss as
	// cycle 1 — the corruption left no residue.
	corrupt = false
	r3, err := upd.RunCycle()
	if err != nil || !r3.Swapped {
		t.Fatalf("post-rollback cycle: %+v err %v", r3, err)
	}
	if math.Float32bits(r3.HoldoutLoss) != math.Float32bits(cleanLoss) {
		t.Fatalf("post-rollback loss %v != clean loss %v", r3.HoldoutLoss, cleanLoss)
	}
	if st := upd.Stats(); st.Rollbacks != 1 || st.Swaps != 2 {
		t.Fatalf("stats %+v, want 1 rollback, 2 swaps", st)
	}
}

// TestUpdaterABCanary: with ABWeight set, New registers <model>-next
// once, serving the primary's model under the primary's policy. A
// passing candidate is swapped into that slot with the configured split
// and the primary's live batch policy, then promoted into the primary
// at the start of the next cycle. A rolled-back cycle leaves the slot
// registered and idle, and no cycle ever removes a model.
func TestUpdaterABCanary(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	if err := eng.Register("m", buildModel(t, cfg, 1), engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	teacher, err := train.NewTeacher(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	holdout, holdoutLabels := teacher.Sample(128)
	corrupt := false
	upd, err := New(eng, buildModel(t, cfg, 1), Config{
		Model: "m", ABWeight: 25,
		Holdout: holdout, HoldoutLabels: holdoutLabels,
		PreSwapHook: func(_ uint64, cand *model.Model) {
			if corrupt {
				sabotage(t, cand)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	router := upd.Router()
	if router == nil {
		t.Fatal("ABWeight > 0 without a router")
	}
	registered := func(when string) {
		t.Helper()
		if got := eng.Models(); len(got) != 2 || got[0] != "m" || got[1] != "m-next" {
			t.Fatalf("%s: models %v, want [m m-next]", when, got)
		}
	}
	serving := func(name string) *model.Model {
		t.Helper()
		m, err := eng.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Bring-up: the slot shares the primary's model and policy.
	registered("after New")
	if serving("m-next") != serving("m") {
		t.Fatal("canary slot does not serve the primary's model")
	}
	if pol := mustPolicy(t, eng, "m-next"); pol != mustPolicy(t, eng, "m") {
		t.Fatalf("canary slot policy %+v, want the primary's", pol)
	}
	// The primary is retuned after bring-up: the canary must take the
	// live policy, not the one it was registered under.
	primaryPolicy := batch.Policy{MaxBatch: 2, MaxWait: 3 * time.Millisecond, SplitAbove: 2}
	if err := eng.SetPolicy("m", primaryPolicy); err != nil {
		t.Fatal(err)
	}

	// Cycle 1: candidate lands in the canary slot, no swap yet.
	r1, err := upd.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Swapped || r1.Promoted || r1.RolledBack {
		t.Fatalf("first AB cycle: %+v, want a canary only", r1)
	}
	registered("after cycle 1")
	canary1 := serving("m-next")
	if canary1 == serving("m") {
		t.Fatal("canary slot still serves the primary's model")
	}
	arms := router.arms
	if len(arms) != 2 || arms[0].Weight != 75 || arms[1].Weight != 25 {
		t.Fatalf("arms %+v, want m:75 m-next:25", arms)
	}
	rng := stats.NewRNG(5)
	ctx := context.Background()
	// The canary is scheduled like the primary, not under the engine
	// default: same policy, so a request over the threshold splits.
	if pol := mustPolicy(t, eng, "m-next"); pol != primaryPolicy {
		t.Fatalf("canary policy %+v, want the primary's live %+v", pol, primaryPolicy)
	}
	if _, err := eng.Rank(ctx, "m-next", model.NewRandomRequest(cfg, 5, rng)); err != nil {
		t.Fatal(err)
	}
	if st, err := eng.ModelStats("m-next"); err != nil || st.Splits != 1 {
		t.Fatalf("canary served a 5-sample request with %d splits (err %v), want 1", st.Splits, err)
	}
	for i := 0; i < 40; i++ {
		rankRouted(t, eng, router, model.NewRandomRequest(cfg, 1, rng))
	}
	if m, next := router.pickCount("m"), router.pickCount("m-next"); m != 30 || next != 10 {
		t.Fatalf("picks m=%d m-next=%d, want m=30 m-next=10 over 40 (25%% split)", m, next)
	}

	// Cycle 2: the canary promotes (gen 2), a fresh canary replaces it.
	r2, err := upd.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Promoted || r2.RolledBack {
		t.Fatalf("second AB cycle: %+v, want a promotion and a new canary", r2)
	}
	if g, _ := eng.Generation("m"); g != 2 {
		t.Fatalf("generation %d after promotion, want 2", g)
	}
	if serving("m") != canary1 {
		t.Fatal("promotion did not move the canary's model into the primary")
	}
	registered("after cycle 2")

	// Cycle 3: cycle 2's canary promotes, then the corrupted candidate
	// rolls back. The slot stays registered and still serves, at weight
	// 0, so a request already routed to it succeeds.
	corrupt = true
	r3, err := upd.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Promoted || !r3.RolledBack {
		t.Fatalf("third AB cycle: %+v, want a promotion and a rollback", r3)
	}
	registered("after a rollback")
	if arms := router.arms; len(arms) != 1 || arms[0].Name != "m" {
		t.Fatalf("arms %+v after a rollback, want m alone", arms)
	}
	if _, err := eng.Rank(ctx, "m-next", model.NewRandomRequest(cfg, 1, rng)); err != nil {
		t.Fatalf("idle canary slot: %v", err)
	}
	if st := upd.Stats(); st.Promotions != 2 || st.Swaps != 2 || st.Rollbacks != 1 {
		t.Fatalf("stats %+v, want 2 promotions, 2 swaps, 1 rollback", st)
	}
}

// mustPolicy returns a registered model's batch policy.
func mustPolicy(t *testing.T, eng *engine.Engine, name string) batch.Policy {
	t.Helper()
	pol, err := eng.Policy(name)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestUpdaterStartStop: the ticker loop runs cycles and shuts down
// cleanly.
func TestUpdaterStartStop(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	if err := eng.Register("m", buildModel(t, cfg, 1), engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	upd, err := New(eng, buildModel(t, cfg, 1), Config{Model: "m", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	upd.Start()
	deadline := time.Now().Add(5 * time.Second)
	for upd.Stats().Swaps < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	upd.Stop()
	upd.Stop() // idempotent
	if err := upd.lastErr.Load(); err != nil {
		t.Fatal(*err)
	}
	if s := upd.Stats().Swaps; s < 2 {
		t.Fatalf("ticker loop produced %d swaps, want >= 2", s)
	}
}

// TestWriteMetrics: the exposition carries the recsys_online_* families
// with live values, including per-arm routing counters.
func TestWriteMetrics(t *testing.T) {
	cfg := testConfig()
	eng := newTestEngine(t)
	if err := eng.Register("m", buildModel(t, cfg, 1), engine.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	upd, err := New(eng, buildModel(t, cfg, 1), Config{Model: "m", ABWeight: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upd.RunCycle(); err != nil {
		t.Fatal(err)
	}
	upd.Router().Pick()

	var sb strings.Builder
	upd.WriteMetrics(&sb)
	text := sb.String()
	for _, want := range []string{
		`recsys_online_generation{model="m"} 1`,
		`recsys_online_swaps_total{model="m"} 0`,
		`recsys_online_rollbacks_total{model="m"} 0`,
		`recsys_online_stream_starved_total{model="m"} 1`,
		`recsys_online_route_picks_total{model="m",arm="m"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// sabotage scales the top MLP's final weights far out of distribution —
// the stand-in for a corrupted snapshot.
func sabotage(t *testing.T, m *model.Model) {
	t.Helper()
	fc := m.Top.Layers[len(m.Top.Layers)-1]
	w := fc.W.Data()
	for i := range w {
		w[i] *= 40
	}
	fc.InvalidatePacked()
}
