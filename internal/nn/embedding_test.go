package nn

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

func TestSparseLengthsSumExact(t *testing.T) {
	rng := stats.NewRNG(1)
	e := NewEmbeddingTable("emb", 4, 2, rng)
	copy(e.W.Data(), []float32{
		1, 10,
		2, 20,
		3, 30,
		4, 40,
	})
	// Batch of 2: slice 0 pools rows {0, 2}, slice 1 pools row {3}.
	out := e.SparseLengthsSum([]int{0, 2, 3}, []int{2, 1})
	want := tensor.FromSlice([]float32{4, 40, 4, 40}, 2, 2)
	if !tensor.Equal(out, want, 1e-6) {
		t.Errorf("SLS = %v, want %v", out.Data(), want.Data())
	}
}

func TestSparseLengthsSumZeroLength(t *testing.T) {
	rng := stats.NewRNG(1)
	e := NewEmbeddingTable("emb", 4, 3, rng)
	out := e.SparseLengthsSum([]int{1}, []int{0, 1})
	for _, v := range out.Row(0) {
		if v != 0 {
			t.Fatal("zero-length slice should pool to zero vector")
		}
	}
	for i, v := range out.Row(1) {
		if v != e.W.At(1, i) {
			t.Fatal("single-ID slice should equal the row")
		}
	}
}

func TestSparseLengthsSumPanics(t *testing.T) {
	rng := stats.NewRNG(1)
	e := NewEmbeddingTable("emb", 4, 2, rng)
	cases := map[string]func(){
		"length mismatch": func() { e.SparseLengthsSum([]int{0, 1}, []int{1}) },
		"negative length": func() { e.SparseLengthsSum([]int{0}, []int{-1, 2}) },
		"id out of range": func() { e.SparseLengthsSum([]int{4}, []int{1}) },
		"negative id":     func() { e.SparseLengthsSum([]int{-1}, []int{1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property (Algorithm 1): pooling is order-invariant within a slice.
func TestSLSOrderInvariance(t *testing.T) {
	rng := stats.NewRNG(2)
	e := NewEmbeddingTable("emb", 100, 8, rng)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(20)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = r.Intn(100)
		}
		a := e.SparseLengthsSum(ids, []int{n})
		perm := r.Perm(n)
		shuffled := make([]int, n)
		for i, p := range perm {
			shuffled[i] = ids[p]
		}
		b := e.SparseLengthsSum(shuffled, []int{n})
		return tensor.MaxAbsDiff(a, b) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: pooling a concatenation equals the sum of pooled parts.
func TestSLSAdditivity(t *testing.T) {
	rng := stats.NewRNG(3)
	e := NewEmbeddingTable("emb", 50, 4, rng)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n1, n2 := 1+r.Intn(10), 1+r.Intn(10)
		ids := make([]int, n1+n2)
		for i := range ids {
			ids[i] = r.Intn(50)
		}
		whole := e.SparseLengthsSum(ids, []int{n1 + n2})
		parts := e.SparseLengthsSum(ids, []int{n1, n2})
		for c := 0; c < 4; c++ {
			sum := parts.At(0, c) + parts.At(1, c)
			if d := whole.At(0, c) - sum; d > 1e-4 || d < -1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSLSOpForward(t *testing.T) {
	rng := stats.NewRNG(4)
	e := NewEmbeddingTable("emb", 1000, 32, rng)
	op := NewSLSOp(e, 5)
	ids := make([]int, 3*5)
	for i := range ids {
		ids[i] = i * 7 % 1000
	}
	out := op.ForwardEx(ids, 3, nil, 1)
	if out.Dim(0) != 3 || out.Dim(1) != 32 {
		t.Fatalf("SLSOp output shape %v", out.Shape())
	}
	// Cross-check against direct SparseLengthsSum.
	want := e.SparseLengthsSum(ids, []int{5, 5, 5})
	if !tensor.Equal(out, want, 0) {
		t.Error("SLSOp disagrees with SparseLengthsSum")
	}
}

func TestSLSOpStats(t *testing.T) {
	rng := stats.NewRNG(5)
	e := NewEmbeddingTable("emb", 1_000_000, 32, rng)
	op := NewSLSOp(e, 80)
	s := op.Stats(1)
	if !s.Irregular {
		t.Error("SLS must be flagged irregular")
	}
	// 80 rows × 32 cols × 1 add = 2560 FLOPs.
	if s.FLOPs != 2560 {
		t.Errorf("FLOPs = %v, want 2560", s.FLOPs)
	}
	// Paper Figure 5: SLS compute intensity ~0.25 FLOPs/byte, orders of
	// magnitude below FC. Check the op lands below 0.5.
	if in := s.Intensity(); in > 0.5 {
		t.Errorf("SLS intensity = %v, want < 0.5", in)
	}
}

func TestSLSOpPanics(t *testing.T) {
	rng := stats.NewRNG(6)
	e := NewEmbeddingTable("emb", 10, 4, rng)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSLSOp(0 lookups) should panic")
			}
		}()
		NewSLSOp(e, 0)
	}()
	op := NewSLSOp(e, 3)
	defer func() {
		if recover() == nil {
			t.Error("wrong ID count should panic")
		}
	}()
	op.ForwardEx([]int{1, 2}, 1, nil, 1)
}

// TestSLSOpForwardPanicsOnBadID: the local gather has one range check,
// the pooling kernel's, and it holds for both stores, serial and
// fanned out.
func TestSLSOpForwardPanicsOnBadID(t *testing.T) {
	const rows, lookups, batch = 10, 4, 8
	for _, int8Rows := range []bool{false, true} {
		for _, bad := range []int{rows, -1} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("int8=%v/id=%d/workers=%d", int8Rows, bad, workers)
				t.Run(name, func(t *testing.T) {
					e := NewEmbeddingTable("emb", rows, 512, stats.NewRNG(7))
					op := NewSLSOp(e, lookups)
					if int8Rows {
						op.Quant = Quantize(e)
					}
					ids := make([]int, batch*lookups)
					ids[len(ids)-1] = bad
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
							t.Fatalf("recovered %v, want an out-of-range panic", r)
						}
					}()
					op.ForwardEx(ids, batch, nil, workers)
				})
			}
		}
	}
}

func TestEmbeddingTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad table dims")
		}
	}()
	NewEmbeddingTable("bad", 0, 8, stats.NewRNG(1))
}
