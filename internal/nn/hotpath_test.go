package nn

import (
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
// intra-op workers is bit-identical to the serial reference, for fp32
// and int8 tables. Batch 41 puts every width above minParallelGather,
// so workers > 1 really fan out, in uneven shares.
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
			want := op.Forward(ids, batch)
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

func TestFCForwardExMatchesForward(t *testing.T) {
	rng := stats.NewRNG(34)
	for _, dims := range [][2]int{{1, 1}, {13, 7}, {64, 129}, {479, 1024}} {
		fc := NewFC("fc", dims[0], dims[1], rng)
		for _, batch := range []int{1, 3, 64} {
			x := tensor.New(batch, dims[0])
			d := x.Data()
			for i := range d {
				d[i] = float32(rng.NormFloat64())
			}
			want := fc.Forward(x)
			arena := tensor.NewArena()
			for _, workers := range []int{0, 1, 2, 7} {
				arena.Reset()
				got := fc.ForwardEx(x, arena, workers)
				// Bit-identical on the Go tier; the AVX2 tier's FMA-fused
				// GEMM is held to the epsilon contract instead.
				if !tensor.GemmClose(got, want, dims[0]) {
					t.Fatalf("fc %v batch %d workers %d: ForwardEx deviates from Forward", dims, batch, workers)
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
	_ = fc.ForwardEx(x, nil, 1) // builds the packed cache
	fc.W.Data()[0] += 1
	fc.InvalidatePacked()
	want := fc.Forward(x)
	got := fc.ForwardEx(x, nil, 1)
	if !tensor.GemmClose(got, want, 8) {
		t.Fatal("ForwardEx served stale packed weights after InvalidatePacked")
	}
}

func TestMLPForwardExMatchesForward(t *testing.T) {
	rng := stats.NewRNG(36)
	mlp := NewMLP("mlp", []int{13, 64, 32, 8}, true, rng)
	x := tensor.New(9, 13)
	d := x.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	want := mlp.Forward(x)
	arena := tensor.NewArena()
	for _, workers := range []int{1, 3} {
		arena.Reset()
		got := mlp.ForwardEx(x, arena, workers)
		// Widest layer bounds the per-GEMM epsilon (errors compound
		// across the 3-layer stack but stay far inside GemmTol's margin).
		if !tensor.GemmClose(got, want, 64) {
			t.Fatalf("workers %d: MLP ForwardEx deviates from Forward", workers)
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
	if !tensor.Equal(c.ForwardEx(ins, arena), c.Forward(ins), 0) {
		t.Fatal("Concat ForwardEx differs")
	}
	dot := NewDotInteraction("d", 4, 4, true)
	x := c.Forward(ins)
	if !tensor.Equal(dot.ForwardEx(x, arena), dot.Forward(x), 0) {
		t.Fatal("DotInteraction ForwardEx differs")
	}
}
