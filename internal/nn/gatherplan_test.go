package nn

import (
	"testing"
	"time"

	"recsys/internal/embcache"
	"recsys/internal/stats"
	"recsys/internal/tensor"
	"recsys/internal/trace"
)

func TestGatherPlanBuild(t *testing.T) {
	var p gatherPlan
	ids := []int{5, 3, 5, 9, 3, 5}
	n := p.build(ids)
	if n != 3 {
		t.Fatalf("unique count = %d, want 3", n)
	}
	wantUniq := []int64{3, 5, 9}
	for i, id := range wantUniq {
		if p.uniq[i] != id {
			t.Fatalf("uniq = %v, want %v", p.uniq, wantUniq)
		}
	}
	// index maps each original position back to its staging row.
	wantIdx := []int{1, 0, 1, 2, 0, 1}
	for i, u := range wantIdx {
		if p.index[i] != u {
			t.Fatalf("index = %v, want %v", p.index[:n], wantIdx)
		}
	}
	// Reuse with fewer IDs must not leak prior state.
	if n := p.build([]int{2, 2}); n != 1 || p.uniq[0] != 2 {
		t.Fatalf("rebuild: uniq=%v n=%d, want [2] 1", p.uniq, n)
	}
}

// syncSource is the in-package stand-in for the remote tier: a
// GatherSource over an op's own tables whose gather completes inside
// BeginGather. It is its own PendingGather, so a pass through it
// allocates nothing. The planned gather runs only behind a
// GatherSource, so this is the store the plan and the row cache are
// tested against.
type syncSource struct{ RowStore }

func (s *syncSource) BeginGather(ids []int64, dstRows []int32, dst *tensor.Tensor, _ time.Time) PendingGather {
	for i, id := range ids {
		s.ReadRow(id, dst.Row(int(dstRows[i])))
	}
	return s
}

func (s *syncSource) Wait() (bool, error) { return false, nil }

// planned returns a second op over op's tables that gathers through a
// syncSource, with a row cache of cacheRows rows (0 = none) in front.
func planned(t testing.TB, op *SLSOp, cacheRows int, policy string, stripes int) *SLSOp {
	t.Helper()
	p := &SLSOp{Table: op.Table, Lookups: op.Lookups, Quant: op.Quant}
	p.SetRowStore(&syncSource{p.LocalStore()})
	if cacheRows > 0 {
		cache, err := embcache.NewConcurrent(cacheRows, op.Table.Cols, policy, stripes)
		if err != nil {
			t.Fatal(err)
		}
		p.SetRowCache(cache)
	}
	return p
}

// drawIDs fills count IDs per sample from a generator for the op.
func drawIDs(g trace.IDGenerator, batch, lookups int) []int {
	ids := make([]int, batch*lookups)
	g.Fill(ids)
	return ids
}

func gatherCases(rows int, rng *stats.RNG) map[string]trace.IDGenerator {
	return map[string]trace.IDGenerator{
		"uniform": trace.NewUniform(rows, rng.Split()),
		"zipf1.1": trace.NewZipfian(rows, 1.1, rng.Split()),
	}
}

// TestForwardGatherBitIdentical drives the planned fp32 gather (cache
// attached, cold and warm, serial and parallel) against the plan-free
// local reference and requires bit-identical outputs.
func TestForwardGatherBitIdentical(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, cols := range []int{8, 32, 64} {
		table := NewEmbeddingTable("t", 500, cols, rng)
		ref := NewSLSOp(table, 20)
		op := planned(t, ref, 64, "lru", 2)
		arena := tensor.NewArena()
		for name, gen := range gatherCases(table.Rows, rng) {
			for _, workers := range []int{1, 4} {
				for pass := 0; pass < 3; pass++ { // pass 0 cold cache, 1-2 warm
					batch := 16
					ids := drawIDs(gen, batch, op.Lookups)
					want := ref.ForwardEx(ids, batch, nil, 1)
					arena.Reset()
					got := op.ForwardEx(ids, batch, arena, workers)
					if !tensor.Equal(want, got, 0) {
						t.Fatalf("cols=%d %s workers=%d pass=%d: planned gather differs from naive", cols, name, workers, pass)
					}
				}
			}
		}
	}
}

// TestForwardQuantBitIdentical: the local int8 gather (one
// tensor.PoolRowsI8 call a row shard) and the planned one (dedup + cached
// dequantized rows), serial and parallel, must both match a
// dequantize-then-add oracle bit for bit, at the served width 32, at 64,
// and at 20, which is not a multiple of 8 — dequantization is
// deterministic, so pooling a row in place, or staging it once, yields
// the same floats as dequantizing each occurrence and adding it.
func TestForwardQuantBitIdentical(t *testing.T) {
	rng := stats.NewRNG(13)
	const batch = 16
	for _, cols := range []int{32, 64, 20} {
		table := NewEmbeddingTable("t", 400, cols, rng)
		ref := NewSLSOp(table, 20)
		ref.Quant = Quantize(table)
		row := make([]float32, cols)
		for _, cacheRows := range []int{0, 64} {
			op := planned(t, ref, cacheRows, "lru", 2)
			for name, gen := range gatherCases(table.Rows, rng) {
				for _, workers := range []int{1, 4} {
					for pass := 0; pass < 3; pass++ {
						ids := drawIDs(gen, batch, op.Lookups)
						want := tensor.New(batch, cols)
						for i, id := range ids {
							ref.Quant.Row(id, row)
							for c, v := range row {
								want.Row(i / op.Lookups)[c] += v
							}
						}
						for path, gather := range map[string]*SLSOp{"local": ref, "planned": op} {
							if got := gather.ForwardEx(ids, batch, nil, workers); !tensor.Equal(want, got, 0) {
								t.Fatalf("cols=%d cache=%d %s workers=%d pass=%d: %s int8 gather differs from dequantize-then-add",
									cols, cacheRows, name, workers, pass, path)
							}
						}
					}
				}
			}
		}
	}
}

// TestForwardQuantErrorBound: int8 serving output stays within the
// worst-case accumulated quantization error of the fp32 output
// (Lookups rows summed, each off by at most MaxAbsError per element).
func TestForwardQuantErrorBound(t *testing.T) {
	rng := stats.NewRNG(14)
	table := NewEmbeddingTable("t", 300, 32, rng)
	fp := NewSLSOp(table, 24)
	q := NewSLSOp(table, 24)
	q.Quant = Quantize(table)
	bound := float32(q.Lookups) * q.Quant.MaxAbsError(table)
	ids := drawIDs(trace.NewZipfian(300, 0.8, rng), 8, 24)
	want := fp.ForwardEx(ids, 8, nil, 1)
	got := q.ForwardEx(ids, 8, nil, 1)
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		d := wd[i] - gd[i]
		if d < 0 {
			d = -d
		}
		if d > bound {
			t.Fatalf("elem %d: |%g - %g| = %g exceeds quantization bound %g", i, wd[i], gd[i], d, bound)
		}
	}
}

func TestSetRowCacheWidthMismatch(t *testing.T) {
	rng := stats.NewRNG(15)
	op := planned(t, NewSLSOp(NewEmbeddingTable("t", 10, 32, rng), 2), 0, "", 0)
	cache, _ := embcache.NewConcurrent(8, 16, "lru", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("width-mismatched cache accepted")
		}
	}()
	op.SetRowCache(cache)
}

// TestSetRowCacheNeedsRemoteStore: a cache beside in-process tables
// would never be consulted, so attaching one is refused, and restoring
// the local store drops the cache that fronted the remote one.
func TestSetRowCacheNeedsRemoteStore(t *testing.T) {
	rng := stats.NewRNG(18)
	op := planned(t, NewSLSOp(NewEmbeddingTable("t", 10, 32, rng), 2), 8, "lru", 1)
	cache := op.RowCacheRef()
	op.SetRowStore(nil)
	if op.RowCacheRef() != nil {
		t.Fatal("row cache survived the return to the local store")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("row cache accepted beside the local store")
		}
	}()
	op.SetRowCache(cache)
}

// TestForwardGatherNoAllocs: both serial gathers are allocation-free
// in steady state — the planned one with a warm arena, plan pool and
// cache, and the local one (fp32 and int8) with a warm arena — the
// contract that lets the engine keep its zero-alloc RankInto gate.
func TestForwardGatherNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; alloc counts meaningless")
	}
	rng := stats.NewRNG(17)
	table := NewEmbeddingTable("t", 1000, 32, rng)
	local := NewSLSOp(table, 40)
	localInt8 := NewSLSOp(table, 40)
	localInt8.Quant = Quantize(table)
	ids := drawIDs(trace.NewZipfian(1000, 1.1, rng), 16, 40)
	for name, op := range map[string]*SLSOp{
		"planned":    planned(t, local, 200, "lru", 1),
		"local":      local,
		"local-int8": localInt8,
	} {
		arena := tensor.NewArena()
		for i := 0; i < 20; i++ { // warm arena, pool, cache
			arena.Reset()
			op.ForwardEx(ids, 16, arena, 1)
		}
		allocs := testing.AllocsPerRun(100, func() {
			arena.Reset()
			op.ForwardEx(ids, 16, arena, 1)
		})
		if allocs > 0.5 {
			t.Fatalf("%s gather allocates %.1f/op in steady state, want 0", name, allocs)
		}
	}
}
