package nn

import (
	"math"
	"slices"
	"testing"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// randIDs draws n valid row IDs for a table.
func randIDs(r *stats.RNG, n, rows int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = r.Intn(rows)
	}
	return ids
}

// TestSLSOpForwardExMatchesForward: the local gather split across
// intra-op workers, into an arena, is bit-identical to the serial
// arena-free pass, for fp32 and int8 tables (TestSLSOpForward and
// TestForwardQuantBitIdentical hold that pass to SparseLengthsSum and
// to a dequantize-then-add oracle). Batch 41 puts every width above
// minParallelGather, so workers > 1 really fan out, in uneven shares.
func TestSLSOpForwardExMatchesForward(t *testing.T) {
	rng := stats.NewRNG(32)
	for _, cols := range []int{32, 64, 24} {
		for _, int8Table := range []bool{false, true} {
			table := NewEmbeddingTable("t", 300, cols, rng)
			op := NewSLSOp(table, 20)
			if int8Table {
				op.Quant = Quantize(table)
			}
			batch := 41
			ids := randIDs(rng, batch*op.Lookups, table.Rows)
			want := op.ForwardEx(ids, batch, nil, 1)
			arena := tensor.NewArena()
			for _, workers := range []int{0, 1, 2, 5} {
				arena.Reset()
				got := op.ForwardEx(ids, batch, arena, workers)
				if !tensor.Equal(got, want, 0) {
					t.Fatalf("cols %d int8 %v workers %d: ForwardEx not bit-identical", cols, int8Table, workers)
				}
			}
		}
	}
}

// TestSLSValidatesBeforeGather ensures hoisting the bounds check out
// of the inner loop did not lose the check itself.
func TestSLSValidatesBeforeGather(t *testing.T) {
	rng := stats.NewRNG(33)
	table := NewEmbeddingTable("t", 10, 32, rng)
	for _, bad := range [][]int{{-1}, {10}, {3, 99}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ids %v: expected out-of-range panic", bad)
				}
			}()
			lengths := []int{len(bad)}
			table.SparseLengthsSum(bad, lengths)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ids %v: expected ForwardEx panic", bad)
				}
			}()
			op := NewSLSOp(table, len(bad))
			op.ForwardEx(bad, 1, nil, 1)
		}()
	}
}

// fcRef is the FC oracle: the unpacked blocked tensor.Gemm plus the
// bias, which the packed kernel is bit-identical to on the Go tier and
// within tensor.GemmTol of on AVX2.
func fcRef(fc *FC, x *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(x.Dim(0), fc.Out)
	tensor.Gemm(x, fc.W, y)
	tensor.AddBiasRows(y, fc.B)
	return y
}

func TestFCForwardExMatchesGemm(t *testing.T) {
	rng := stats.NewRNG(34)
	for _, dims := range [][2]int{{1, 1}, {13, 7}, {64, 129}, {479, 1024}} {
		fc := NewFC("fc", dims[0], dims[1], rng)
		for _, batch := range []int{1, 3, 64} {
			x := tensor.New(batch, dims[0])
			d := x.Data()
			for i := range d {
				d[i] = float32(rng.NormFloat64())
			}
			want := fcRef(fc, x)
			arena := tensor.NewArena()
			for _, workers := range []int{0, 1, 2, 7} {
				arena.Reset()
				got := fc.ForwardEx(x, arena, workers, false)
				// Bit-identical on the Go tier; the AVX2 tier's FMA-fused
				// GEMM is held to the epsilon contract instead.
				if !tensor.GemmClose(got, want, dims[0]) {
					t.Fatalf("fc %v batch %d workers %d: ForwardEx deviates from Gemm", dims, batch, workers)
				}
			}
		}
	}
}

// TestFCInvalidatePacked mutates W after the packed cache is built and
// checks the cache is dropped rather than serving stale weights.
func TestFCInvalidatePacked(t *testing.T) {
	rng := stats.NewRNG(35)
	fc := NewFC("fc", 8, 8, rng)
	x := tensor.New(2, 8)
	x.Fill(1)
	_ = fc.ForwardEx(x, nil, 1, false) // builds the packed cache
	fc.W.Data()[0] += 1
	fc.InvalidatePacked()
	want := fcRef(fc, x)
	got := fc.ForwardEx(x, nil, 1, false)
	if !tensor.GemmClose(got, want, 8) {
		t.Fatal("ForwardEx served stale packed weights after InvalidatePacked")
	}
}

func TestMLPForwardExMatchesGemm(t *testing.T) {
	rng := stats.NewRNG(36)
	mlp := NewMLP("mlp", []int{13, 64, 32, 8}, true, rng)
	x := tensor.New(9, 13)
	d := x.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	want := x
	for _, fc := range mlp.Layers { // FinalReLU: a ReLU after every layer
		want = fcRef(fc, want)
		reluInPlace(want)
	}
	arena := tensor.NewArena()
	for _, workers := range []int{1, 3} {
		arena.Reset()
		got := mlp.ForwardEx(x, arena, workers)
		// Widest layer bounds the per-GEMM epsilon (errors compound
		// across the 3-layer stack but stay far inside GemmTol's margin).
		if !tensor.GemmClose(got, want, 64) {
			t.Fatalf("workers %d: MLP ForwardEx deviates from Gemm", workers)
		}
	}
}

func TestConcatAndDotForwardEx(t *testing.T) {
	rng := stats.NewRNG(37)
	c := NewConcat("c", []int{4, 8, 4})
	ins := make([]*tensor.Tensor, 3)
	for i, w := range c.Widths {
		ins[i] = tensor.New(5, w)
		d := ins[i].Data()
		for j := range d {
			d[j] = float32(rng.NormFloat64())
		}
	}
	arena := tensor.NewArena()
	x := c.ForwardEx(ins, nil)
	if !tensor.Equal(c.ForwardEx(ins, arena), x, 0) {
		t.Fatal("Concat ForwardEx differs")
	}
	dot := NewDotInteraction("d", 4, 4, true)
	if !tensor.Equal(dot.ForwardEx(x, arena), dot.ForwardEx(x, nil), 0) {
		t.Fatal("DotInteraction ForwardEx differs")
	}
}

// rmc3Bottom is the rmc3 preset's bottom MLP (512-2560-256-128, ReLU
// after every layer) with a batch-16 input: the FC stack that
// dominates the rmc3_dense workload.
func rmc3Bottom(seed uint64) (*MLP, *tensor.Tensor) {
	rng := stats.NewRNG(seed)
	mlp := NewMLP("bottom", []int{512, 2560, 256, 128}, true, rng)
	x := tensor.New(16, 512)
	d := x.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return mlp, x
}

// TestMLPForwardExPoisonedArena: FC outputs come from the arena
// uninitialised, so a slab that a previous pass left full of NaN must
// not leak into any output. The pass over the poisoned slab must equal
// a fresh (heap, zeroed) pass bit for bit, at 1 and 2 workers.
func TestMLPForwardExPoisonedArena(t *testing.T) {
	mlp, x := rmc3Bottom(38)
	for _, workers := range []int{1, 2} {
		want := mlp.ForwardEx(x, nil, workers)
		arena := tensor.NewArena()
		arena.AllocUninit(1 << 17).Fill(float32(math.NaN())) // ≥ the pass's working set
		arena.Reset()
		got := mlp.ForwardEx(x, arena, workers)
		if !bitsEqual(got.Data(), want.Data()) {
			t.Fatalf("workers=%d: pass over a NaN-filled arena differs from a fresh pass", workers)
		}
	}
}

// TestMLPForwardExZeroAlloc: with a warm arena the fp32 rmc3 bottom
// MLP at batch 16 allocates nothing per pass.
func TestMLPForwardExZeroAlloc(t *testing.T) {
	mlp, x := rmc3Bottom(39)
	arena := tensor.NewArena()
	run := func() {
		arena.Reset()
		mlp.ForwardEx(x, arena, 1)
	}
	run() // pack weights, grow the slab
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("fp32 MLP ForwardEx allocates %v objects/op with a warm arena", allocs)
	}
}

func bitsEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
