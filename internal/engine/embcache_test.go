package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/shard"
	"recsys/internal/stats"
	"recsys/internal/trace"
)

// cacheOpts is the engine configuration the equivalence tests run
// under, with the hot-row cache on. The cache fronts a remote tier
// only, so every test here registers its model against startEmbTier's
// loopback shards.
func cacheOpts(rowsPerTable int) Options {
	return Options{
		Workers: 2, QueueDepth: 32, MaxBatch: 8,
		MaxWait: 200 * time.Microsecond, IntraOpWorkers: 1,
		EmbCache: EmbCacheOptions{RowsPerTable: rowsPerTable},
	}
}

// withTables returns a model with seed's dense weights and tables's
// embedding rows (re-quantized when int8Tables): a second generation
// to swap in over a tier that keeps serving tables's rows, whose
// unattached clone's CTR is therefore the reference for what the
// engine scores through the tier.
func withTables(t *testing.T, cfg model.Config, seed uint64, tables *model.Model, int8Tables bool) *model.Model {
	t.Helper()
	m := buildModel(t, cfg, seed)
	for i, op := range m.SLS {
		copy(op.Table.W.Data(), tables.SLS[i].Table.W.Data())
	}
	if int8Tables {
		m.QuantizeTables()
	}
	return m
}

// unattached clones m without its serving attachments (Clone never
// copies them): the clone reads its tables in place, the plan-free
// local reference a cached remote gather must match.
func unattached(t *testing.T, m *model.Model) *model.Model {
	t.Helper()
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// genRequest draws one request with generator-driven sparse IDs (one
// generator per table) and random dense features.
func genRequest(cfg model.Config, batch int, gens []trace.IDGenerator, rng *stats.RNG) model.Request {
	req := model.NewRandomRequest(cfg, batch, rng)
	for t, g := range gens {
		g.Fill(req.SparseIDs[t])
	}
	return req
}

func tableGens(cfg model.Config, s float64, rng *stats.RNG) []trace.IDGenerator {
	gens := make([]trace.IDGenerator, len(cfg.Tables))
	for i, tb := range cfg.Tables {
		if s == 0 {
			gens[i] = trace.NewUniform(tb.Rows, rng.Split())
		} else {
			gens[i] = trace.NewZipfian(tb.Rows, s, rng.Split())
		}
	}
	return gens
}

// TestEmbCacheEquivalence: with dedup + cache on in front of a 2-shard
// tier, engine output must match an unattached clone's plan-free CTR
// across uniform and Zipf traffic, and stay so after a model with new
// dense weights over the tier's tables is hot-swapped in with the
// cache warm.
func TestEmbCacheEquivalence(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, cacheOpts(32)) // 32 < 120 rows: real evictions
	m := buildModel(t, cfg, 1)
	ref := unattached(t, m)
	_, client := startEmbTier(t, cfg, 1, false, 2, shard.Options{})
	if err := e.Register("m", m, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(21)
	ctx := context.Background()
	for _, s := range []float64{0, 0.8, 1.1} {
		gens := tableGens(cfg, s, rng)
		for i := 0; i < 8; i++ {
			req := genRequest(cfg, 4, gens, rng)
			got, err := e.Rank(ctx, "m", req)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.CTR(req)
			if !ctrEqual(got, want) {
				t.Fatalf("zipf=%.1f req %d: cached engine output differs from the unattached clone", s, i)
			}
		}
	}

	// Hot swap to fresh dense weights over the same tables, the cache
	// warm: scores must follow the swapped-in model exactly.
	next := withTables(t, cfg, 2, m, false)
	nextRef := unattached(t, next)
	if err := e.Swap("m", next); err != nil {
		t.Fatal(err)
	}
	gens := tableGens(cfg, 1.1, rng)
	for i := 0; i < 8; i++ {
		req := genRequest(cfg, 4, gens, rng)
		got, err := e.Rank(ctx, "m", req)
		if err != nil {
			t.Fatal(err)
		}
		if want := nextRef.CTR(req); !ctrEqual(got, want) {
			t.Fatalf("post-swap req %d: output differs from swapped-in model", i)
		}
	}
}

// TestEmbCacheQuantEquivalence runs an int8 model through the cached
// engine over a tier of int8 shards: output must match an unattached
// clone's in-place int8 gather (the rows the shards send, and the
// cache keeps, are byte-copies of deterministic dequantization).
func TestEmbCacheQuantEquivalence(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, cacheOpts(48))
	m := buildModel(t, cfg, 3).QuantizeTables()
	ref := unattached(t, m)
	_, client := startEmbTier(t, cfg, 3, true, 2, shard.Options{})
	if err := e.Register("q", m, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(22)
	ctx := context.Background()
	gens := tableGens(cfg, 1.1, rng)
	for i := 0; i < 10; i++ {
		req := genRequest(cfg, 4, gens, rng)
		got, err := e.Rank(ctx, "q", req)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.CTR(req); !ctrEqual(got, want) {
			t.Fatalf("req %d: cached int8 engine output differs from the unattached clone", i)
		}
	}
}

// TestEmbCacheSwapRace hammers Rank with Zipf traffic through the
// cached remote gather while the model hot-swaps back and forth
// between two generations that share the tier's rows. The row caches
// survive every swap; every result must still match one of the two
// models' plan-free local references — a cached row from the wrong
// tables, or a pass torn across the swap, would match neither. Run
// under -race this also exercises re-attaching a model that older
// passes may still be running (A→B→A), which must write nothing;
// TestSwapDuringInFlightRemoteGather pins a pass that outlives its
// swap deterministically.
func TestEmbCacheSwapRace(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, cacheOpts(32))
	mA := buildModel(t, cfg, 4)
	mB := withTables(t, cfg, 5, mA, false)
	refModelA, refModelB := unattached(t, mA), unattached(t, mB)
	_, client := startEmbTier(t, cfg, 4, false, 2, shard.Options{})
	if err := e.Register("m", mA, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}

	// Fixed request set with precomputed per-model references.
	rng := stats.NewRNG(23)
	gens := tableGens(cfg, 1.1, rng)
	const nReq = 16
	reqs := make([]model.Request, nReq)
	refA := make([][]float32, nReq)
	refB := make([][]float32, nReq)
	for k := range reqs {
		reqs[k] = genRequest(cfg, 2, gens, rng)
		refA[k] = refModelA.CTR(reqs[k])
		refB[k] = refModelB.CTR(reqs[k])
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRNG(seed)
			for i := 0; i < 200; i++ {
				k := r.Intn(nReq)
				got, err := e.Rank(ctx, "m", reqs[k])
				if err != nil {
					t.Errorf("rank: %v", err)
					return
				}
				if !ctrEqual(got, refA[k]) && !ctrEqual(got, refB[k]) {
					t.Errorf("req %d: output matches neither model — stale cache row served", k)
					return
				}
			}
		}(uint64(w) + 100)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			m := mB
			if i%2 == 1 {
				m = mA
			}
			if err := e.Swap("m", m); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
}

// TestEmbCacheSwapRaceInt8 is the swap-hammer against a model with
// int8 tables and fp32 MLPs, with the row caches surviving every swap:
// the two generations share the tier's rows but not their MLP weights,
// and each keeps its own packed FC weights (PackedB), so a swap must
// never pair one model's packs, or a cached row from the wrong tables,
// with the other's pass. References are precomputed through ForwardEx,
// the engine's own forward, so every hammered result must bit-match
// one of the two models.
func TestEmbCacheSwapRaceInt8(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, cacheOpts(32))
	mA := buildModel(t, cfg, 7)
	mB := withTables(t, cfg, 8, mA, true)
	mA.QuantizeTables()
	_, client := startEmbTier(t, cfg, 7, true, 2, shard.Options{})
	if err := e.Register("m", mA, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(25)
	gens := tableGens(cfg, 1.1, rng)
	const nReq = 16
	reqs := make([]model.Request, nReq)
	refA := make([][]float32, nReq)
	refB := make([][]float32, nReq)
	for k := range reqs {
		reqs[k] = genRequest(cfg, 2, gens, rng)
		// Computed before the hammer starts, so these passes never
		// race the engine's own cache fills.
		refA[k] = append([]float32(nil), mA.ForwardEx(reqs[k], nil, 1).Data()...)
		refB[k] = append([]float32(nil), mB.ForwardEx(reqs[k], nil, 1).Data()...)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRNG(seed)
			for i := 0; i < 200; i++ {
				k := r.Intn(nReq)
				got, err := e.Rank(ctx, "m", reqs[k])
				if err != nil {
					t.Errorf("rank: %v", err)
					return
				}
				if !ctrEqual(got, refA[k]) && !ctrEqual(got, refB[k]) {
					t.Errorf("req %d: int8-table output matches neither model — stale weight pack or cache row served", k)
					return
				}
			}
		}(uint64(w) + 200)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			m := mB
			if i%2 == 1 {
				m = mA
			}
			if err := e.Swap("m", m); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
}

// TestEmbCacheStatsAndMetrics checks the observability surface:
// Stats.EmbCache carries per-table counters, the aggregate view merges
// them, and /metrics exposes the five embcache families.
func TestEmbCacheStatsAndMetrics(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	// RowsPerTable above the 120-row tables: capacity clamps to the
	// table size, nearly every row stays resident after the first pass,
	// and hits are guaranteed. (An undersized LRU over these tiny tables
	// would scan-thrash: each pass walks ~110 unique rows in sorted
	// order, evicting every row before its next use — see DESIGN.md.)
	e := testEngine(t, cacheOpts(200))
	m := buildModel(t, cfg, 6)
	_, client := startEmbTier(t, cfg, 6, false, 2, shard.Options{})
	if err := e.Register("m", m, ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(24)
	gens := tableGens(cfg, 1.1, rng)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := e.Rank(ctx, "m", genRequest(cfg, 4, gens, rng)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.ModelStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.EmbCache) != len(cfg.Tables) {
		t.Fatalf("EmbCache entries = %d, want %d", len(st.EmbCache), len(cfg.Tables))
	}
	for _, ec := range st.EmbCache {
		// Clamped to the table's 120 rows, then rounded up to a whole
		// number of rows per lock stripe (at most 16 stripes).
		if ec.Capacity < 120 || ec.Capacity >= 120+16 {
			t.Errorf("table %d capacity = %d, want 120 (clamped to table rows) plus stripe round-up", ec.Table, ec.Capacity)
		}
		if ec.Hits+ec.Misses == 0 {
			t.Errorf("table %d: no accesses recorded", ec.Table)
		}
		if ec.Hits == 0 {
			t.Errorf("table %d: zipf(1.1) traffic should produce hits", ec.Table)
		}
		if ec.HitRate <= 0 || ec.HitRate >= 1 {
			t.Errorf("table %d hit rate = %v, want in (0,1)", ec.Table, ec.HitRate)
		}
	}
	agg := e.AggregateStats()
	if len(agg.EmbCache) != len(st.EmbCache) {
		t.Fatalf("aggregate EmbCache entries = %d, want %d", len(agg.EmbCache), len(st.EmbCache))
	}
	if agg.EmbCache[0].Hits != st.EmbCache[0].Hits {
		t.Error("aggregate lost per-table hit counts")
	}

	var sb strings.Builder
	e.WriteMetrics(&sb)
	exposition := sb.String()
	for _, fam := range []string{
		"recsys_embcache_capacity_rows",
		"recsys_embcache_hits_total",
		"recsys_embcache_misses_total",
		"recsys_embcache_evictions_total",
		"recsys_embcache_hit_ratio",
	} {
		if !strings.Contains(exposition, fam+`{model="m",table="0"}`) {
			t.Errorf("/metrics missing %s series", fam)
		}
	}
}

// TestEmbCacheLocalModelHasNone: a model whose tables are in-process
// gets no row cache however Options.EmbCache is set — local rows are
// read where they lie — so nothing of the cache shows in its ops, its
// stats or the exposition.
func TestEmbCacheLocalModelHasNone(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	e := testEngine(t, cacheOpts(64))
	m := buildModel(t, cfg, 9)
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rank(context.Background(), "m", model.NewRandomRequest(cfg, 4, stats.NewRNG(26))); err != nil {
		t.Fatal(err)
	}
	for i, op := range m.SLS {
		if op.RowCacheRef() != nil || op.Async() {
			t.Errorf("table %d: local op has a row cache or a remote store attached", i)
		}
	}
	st, err := e.ModelStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.EmbCache != nil || e.AggregateStats().EmbCache != nil {
		t.Errorf("Stats.EmbCache = %v for a local model, want nil", st.EmbCache)
	}
	var sb strings.Builder
	e.WriteMetrics(&sb)
	if strings.Contains(sb.String(), "recsys_embcache_") {
		t.Error("/metrics carries recsys_embcache_* lines for a local model")
	}
}

// TestEmbCacheOptionValidation: bad cache options fail at engine
// construction, not first lookup.
func TestEmbCacheOptionValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.EmbCache = EmbCacheOptions{RowsPerTable: -1}
	if _, err := NewEngine(opts); err == nil {
		t.Error("negative RowsPerTable accepted")
	}
}
