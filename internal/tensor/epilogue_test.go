package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The fused epilogue (ParallelGemmPackedBias) must equal, bit for bit
// and on each tier, that tier's unfused sequence: GemmPacked into a
// zeroed C, then AddBiasRows, then `if v < 0 { v = 0 }`. Comparing
// against the same tier keeps FMA fusion out of the question, so the
// check can be exact, NaN payloads and zero signs included.

// reluRef is the unfused ReLU the epilogue copies (nn.ReLUInPlace's rule).
func reluRef(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

// unfusedBias is the oracle: the separate passes over C that the fused
// entry replaces, on the active tier.
func unfusedBias(a *Tensor, pb *PackedB, bias []float32, relu bool) *Tensor {
	c := New(a.Dim(0), pb.N)
	GemmPacked(a, pb, c)
	AddBiasRows(c, bias)
	if relu {
		reluRef(c.data)
	}
	return c
}

// poisoned returns an m×n tensor of NaNs: the fused entry never reads
// C, so none of this may survive.
func poisoned(m, n int) *Tensor {
	c := New(m, n)
	c.Fill(float32(math.NaN()))
	return c
}

// firstBitDiff returns the first index where got and want differ in
// bits, or -1.
func firstBitDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// epilogueShapes covers the tiling's corners: m%8 ≠ 0, edge columns,
// n < 8, k crossing 64-row panels, and two shapes whose k spans several
// parallelKC blocks (one of one panel each, one of three panels each),
// large enough to run in parallel.
var epilogueShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{5, 9, 5},       // n < 8: edge columns only
	{8, 64, 8},      // one full tile, one full panel
	{13, 70, 19},    // remainder rows, edge columns, two panels
	{9, 130, 16},    // three panels, 8 | n
	{21, 200, 2050}, // kc = 64: four kc blocks, edge columns
	{19, 450, 516},  // kc = 192: three kc blocks of several panels
}

// specialProblem fills A and B with normal values, then plants the
// special cases in fixed places: NaN and ±Inf in A; rows 0 and m-1 of
// A and column 0 of B so tiny that each product there rounds to zero
// (to −0, being negative); and a bias of −0 in column 0 (a full 8-wide
// tile once n ≥ 8) and in column n-1 (an edge column unless 8 | n).
func specialProblem(rng *rand.Rand, m, k, n int) (a *Tensor, pb *PackedB, bias []float32) {
	a = FromSlice(randSlice(rng, m*k), m, k)
	b := FromSlice(randSlice(rng, k*n), k, n)
	bias = randSlice(rng, n)
	for i := 0; i < m; i++ {
		switch i % 5 {
		case 1:
			a.Set(float32(math.NaN()), i, rng.Intn(k))
		case 2:
			a.Set(float32(math.Inf(1)), i, rng.Intn(k))
		case 3:
			a.Set(float32(math.Inf(-1)), i, rng.Intn(k))
		}
	}
	for p := 0; p < k; p++ {
		a.Set(1e-25, 0, p)
		a.Set(1e-25, m-1, p)
		b.Set(-1e-25, p, 0)
	}
	negZero := float32(math.Copysign(0, -1))
	bias[0], bias[n-1] = negZero, negZero
	return a, PackB(b), bias
}

func TestGemmPackedBiasMatchesUnfused(t *testing.T) {
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			defer setTierForTest(t, tier)()
			rng := rand.New(rand.NewSource(43))
			for _, s := range epilogueShapes {
				for _, special := range []bool{false, true} {
					a := FromSlice(randSlice(rng, s.m*s.k), s.m, s.k)
					pb := PackB(FromSlice(randSlice(rng, s.k*s.n), s.k, s.n))
					bias := randSlice(rng, s.n)
					if special {
						a, pb, bias = specialProblem(rng, s.m, s.k, s.n)
					}
					for _, relu := range []bool{false, true} {
						want := unfusedBias(a, pb, bias, relu)
						for _, workers := range []int{1, 2, 4, 7} {
							got := poisoned(s.m, s.n)
							ParallelGemmPackedBias(a, pb, bias, relu, got, workers)
							if i := firstBitDiff(got.data, want.data); i >= 0 {
								t.Fatalf("%dx%dx%d special=%v relu=%v workers=%d: element (%d,%d) = %v (%#08x), unfused %v (%#08x)",
									s.m, s.k, s.n, special, relu, workers, i/s.n, i%s.n,
									got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestGemmPackedBiasKeepsSignedZero pins the ReLU's operand order on
// the cells specialProblem plants, in an 8×8 tile (row 0) and a
// remainder row (row 8 of 9): on the assembly tiers the FMA sum of the tiny
// negative products is −0, −0 + (−0) is −0, and `if v < 0` keeps it,
// where max(v, 0) in the other operand order would store +0. On the Go
// tier each product rounds to −0 before it meets the +0 accumulator,
// so those cells are +0 there. A NaN in A must survive the ReLU too.
func TestGemmPackedBiasKeepsSignedZero(t *testing.T) {
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			defer setTierForTest(t, tier)()
			a, pb, bias := specialProblem(rand.New(rand.NewSource(44)), 9, 70, 11)
			got := poisoned(9, 11)
			ParallelGemmPackedBias(a, pb, bias, true, got, 1)
			wantNeg := tier != KernelGo
			for _, row := range []int{0, 8} {
				if v := got.At(row, 0); v != 0 || math.Signbit(float64(v)) != wantNeg {
					t.Fatalf("row %d tiny cell = %v (sign bit %v), want a zero with sign bit %v", row, v, math.Signbit(float64(v)), wantNeg)
				}
			}
			for _, col := range []int{0, 7, 10} { // full tile and edge columns
				if v := got.At(1, col); !math.IsNaN(float64(v)) {
					t.Fatalf("NaN row lost its NaN under the ReLU at column %d: %v", col, v)
				}
			}
		})
	}
}

// TestGemmPackedBiasRowRanges runs the epilogue over row ranges that do
// not start on a multiple of 8, through each tier's row driver, and
// checks that rows outside the range are not touched.
func TestGemmPackedBiasRowRanges(t *testing.T) {
	const m, k, n = 21, 150, 27
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			defer setTierForTest(t, tier)()
			a, pb, bias := specialProblem(rand.New(rand.NewSource(45)), m, k, n)
			want := unfusedBias(a, pb, bias, true)
			for _, r := range []struct{ lo, hi int }{{0, 21}, {3, 11}, {5, 6}, {13, 21}, {1, 20}} {
				got := poisoned(m, n)
				gemmPackedRowsBlock(a.data, pb, got.data, r.lo, r.hi, 0, k, k, n, epilogue{bias: bias, relu: true})
				if i := firstBitDiff(got.data[r.lo*n:r.hi*n], want.data[r.lo*n:r.hi*n]); i >= 0 {
					t.Fatalf("rows [%d,%d): element %d differs from unfused", r.lo, r.hi, r.lo*n+i)
				}
				for i, v := range got.data {
					if (i < r.lo*n || i >= r.hi*n) && !math.IsNaN(float64(v)) {
						t.Fatalf("rows [%d,%d): element %d outside the range written", r.lo, r.hi, i)
					}
				}
			}
		})
	}
}

// TestGemmPackedAccumulateUnchanged: the zero epilogue keeps the C +=
// A·B meaning of GemmPacked and ParallelGemmPacked, on a non-zero C.
func TestGemmPackedAccumulateUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const m, k, n = 11, 200, 2050
	a := FromSlice(randSlice(rng, m*k), m, k)
	b := FromSlice(randSlice(rng, k*n), k, n)
	c0 := FromSlice(randSlice(rng, m*n), m, n)
	want := c0.Clone()
	Gemm(a, b, want)
	pb := PackB(b)
	for _, workers := range []int{1, 2} {
		got := c0.Clone()
		ParallelGemmPacked(a, pb, got, workers)
		assertGemmMatch(t, got, want, k, fmt.Sprintf("accumulate workers=%d", workers))
	}
}

func TestGemmPackedBiasPanics(t *testing.T) {
	cases := map[string]func(){
		"bias len": func() {
			ParallelGemmPackedBias(New(2, 3), PackB(New(3, 4)), make([]float32, 3), false, New(2, 4), 1)
		},
		"zero k": func() {
			ParallelGemmPackedBias(New(2, 0), PackB(New(0, 4)), make([]float32, 4), false, New(2, 4), 1)
		},
		"output shape": func() {
			ParallelGemmPackedBias(New(2, 3), PackB(New(3, 4)), make([]float32, 4), true, New(2, 5), 1)
		},
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

// TestGemmTailRowsBitIdentical: a row's bits do not depend on which
// kernel runs it. For every m from 1 to 31 (each mix of a 16-row
// block, 8-row tiles, a 4-row tail block and single rows), with no epilogue (C += A·B on a
// non-zero C), a bias, and a bias and ReLU, each row of an m-row
// product equals that row computed alone, on each tier, at 1, 2 and 3
// workers (k spans two parallelKC blocks when the product fans out).
func TestGemmTailRowsBitIdentical(t *testing.T) {
	const k, n = 200, 700
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			defer setTierForTest(t, tier)()
			rng := rand.New(rand.NewSource(47))
			for m := 1; m <= 31; m++ {
				a, pb, bias := specialProblem(rng, m, k, n)
				c0 := randSlice(rng, m*n)
				for _, ep := range []struct {
					name string
					bias []float32
					relu bool
				}{{"none", nil, false}, {"bias", bias, false}, {"bias+relu", bias, true}} {
					run := func(a *Tensor, c0 []float32, workers int) []float32 {
						c := FromSlice(slices.Clone(c0), a.Dim(0), n)
						if ep.bias == nil {
							ParallelGemmPacked(a, pb, c, workers)
						} else {
							ParallelGemmPackedBias(a, pb, ep.bias, ep.relu, c, workers)
						}
						return c.data
					}
					alone := make([][]float32, m)
					for r := range alone {
						alone[r] = run(FromSlice(a.data[r*k:(r+1)*k], 1, k), c0[r*n:(r+1)*n], 1)
					}
					for _, workers := range []int{1, 2, 3} {
						got := run(a, c0, workers)
						for r := range alone {
							if i := firstBitDiff(got[r*n:(r+1)*n], alone[r]); i >= 0 {
								t.Fatalf("m=%d %s workers=%d: row %d column %d differs from the row computed alone", m, ep.name, workers, r, i)
							}
						}
					}
				}
			}
		})
	}
}
