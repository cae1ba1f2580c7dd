package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Equivalence policy (see cpu.go): fp32 GEMM comparisons between the
// AVX2/FMA tier and the Go reference use FloatsClose — fused rounding
// differs legitimately — while PoolRowsF32 and PoolRowsI8 must be
// bit-identical across tiers. The pure-Go tier is bit-exact by
// definition (it IS the reference).

// The tolerances are the package contract (see GemmTol's rationale);
// these wrappers keep the assert call sites short.
func gemmRtolOf(k int) float64 { rtol, _ := GemmTol(k); return rtol }
func gemmAtol(k int) float64   { _, atol := GemmTol(k); return atol }

// kernelSupported reports whether this machine can run the given tier.
func kernelSupported(tier string) bool {
	switch tier {
	case KernelGo:
		return true
	case KernelAVX2:
		return hasAVX2FMA
	case KernelAVX512:
		return hasAVX512
	}
	return false
}

// availableTiers lists the kernel tiers testable on this host.
func availableTiers(testing.TB) []string {
	tiers := []string{KernelGo}
	for _, tier := range []string{KernelAVX2, KernelAVX512} {
		if kernelSupported(tier) {
			tiers = append(tiers, tier)
		}
	}
	return tiers
}

// setTierForTest switches the active kernel tier, returning a restore
// func for the previous tier.
func setTierForTest(t testing.TB, tier string) (restore func()) {
	t.Helper()
	prev := KernelTier()
	if err := SetKernel(tier); err != nil {
		t.Fatalf("SetKernel(%q): %v", tier, err)
	}
	return func() {
		if err := SetKernel(prev); err != nil {
			t.Fatalf("restore kernel tier %q: %v", prev, err)
		}
	}
}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !kernelSupported(KernelAVX2) {
		t.Skip("no AVX2/FMA on this machine; asm tier untestable")
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// runBothGemmTiers packs B and runs the Go and AVX2 packed kernels
// over rows [lo, hi), returning both C buffers.
func runBothGemmTiers(rng *rand.Rand, m, k, n, lo, hi int) (goC, asmC []float32) {
	a := FromSlice(randSlice(rng, m*k), m, k)
	b := FromSlice(randSlice(rng, k*n), k, n)
	pb := PackB(b)
	goC = randSlice(rng, m*n) // non-zero C: accumulation must match too
	asmC = make([]float32, m*n)
	copy(asmC, goC)
	gemmPackedRowsGo(a.data, pb, goC, lo, hi, 0, k, k, n, epilogue{})
	gemmPackedRowsAVX2(a.data, pb, asmC, lo, hi, 0, k, k, n, epilogue{})
	return goC, asmC
}

func TestGemmPackedTierEquivalence(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{8, 8, 8},
		{16, 64, 32},
		{7, 13, 9},    // no full 8-row tile, ragged columns
		{9, 65, 17},   // remainder rows + k crossing a panel boundary
		{33, 129, 40}, // multiple panels, 8|n
		{64, 512, 512},
		{12, 100, 7}, // n < nr: pure edge-column path
	}
	for _, s := range shapes {
		goC, asmC := runBothGemmTiers(rng, s.m, s.k, s.n, 0, s.m)
		if !FloatsClose(asmC, goC, gemmRtolOf(s.k), gemmAtol(s.k)) {
			t.Errorf("m=%d k=%d n=%d: AVX2 GEMM deviates from Go reference beyond rtol", s.m, s.k, s.n)
		}
	}
}

// TestGemmPackedTierRowRange exercises partial row ranges — the shard
// boundaries ParallelGemmPacked hands to workers never start at a
// multiple of 8 in general.
func TestGemmPackedTierRowRange(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 21, 33, 24
	for _, r := range []struct{ lo, hi int }{{0, 21}, {3, 11}, {5, 6}, {13, 21}} {
		goC, asmC := runBothGemmTiers(rng, m, k, n, r.lo, r.hi)
		if !FloatsClose(asmC, goC, gemmRtolOf(k), gemmAtol(k)) {
			t.Errorf("rows [%d,%d): AVX2 GEMM deviates from Go reference", r.lo, r.hi)
		}
	}
}

// TestGemmPackedDispatch: the public entry points honor SetKernel and
// the go tier stays bit-identical to the unpacked reference Gemm.
func TestGemmPackedDispatch(t *testing.T) {
	prev := KernelTier()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 19, 70, 43
	a := FromSlice(randSlice(rng, m*k), m, k)
	b := FromSlice(randSlice(rng, k*n), k, n)
	pb := PackB(b)

	ref := New(m, n)
	Gemm(a, b, ref)

	if err := SetKernel(KernelGo); err != nil {
		t.Fatal(err)
	}
	goC := New(m, n)
	GemmPacked(a, pb, goC)
	for i := range ref.data {
		if ref.data[i] != goC.data[i] {
			t.Fatalf("go-tier GemmPacked not bit-identical to Gemm at %d", i)
		}
	}

	if kernelSupported(KernelAVX2) {
		if err := SetKernel(KernelAVX2); err != nil {
			t.Fatal(err)
		}
		asmC := New(m, n)
		GemmPacked(a, pb, asmC)
		if !TensorsClose(asmC, ref, gemmRtolOf(k), gemmAtol(k)) {
			t.Fatal("avx2-tier GemmPacked deviates from Gemm beyond rtol")
		}
		par := New(m, n)
		ParallelGemmPacked(a, pb, par, 4)
		for i := range par.data {
			if par.data[i] != asmC.data[i] {
				t.Fatalf("parallel avx2 GemmPacked differs from serial at %d (row partition must not change per-row order)", i)
			}
		}
	}
}

func TestSetKernelErrors(t *testing.T) {
	prev := KernelTier()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	if err := SetKernel("sse9"); err == nil {
		t.Fatal("SetKernel accepted an unknown tier")
	}
	if err := SetKernel(KernelGo); err != nil {
		t.Fatal(err)
	}
	if KernelTier() != KernelGo {
		t.Fatalf("tier = %q after SetKernel(go)", KernelTier())
	}
	if !kernelSupported(KernelAVX2) {
		if err := SetKernel(KernelAVX2); err == nil {
			t.Fatal("SetKernel(avx2) must fail without hardware support")
		}
	}
}

// TestSetKernelAVX512WithoutHardware: on a CPU (or OS) without AVX-512
// state, SetKernel("avx512") returns an error and leaves the active
// tier as it was. The hardware flag is cleared for the test, so the
// refusal is exercised on AVX-512 hosts too.
func TestSetKernelAVX512WithoutHardware(t *testing.T) {
	prev, had := KernelTier(), hasAVX512
	defer func() {
		hasAVX512 = had
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	hasAVX512 = false
	for _, tier := range availableTiers(t) {
		if err := SetKernel(tier); err != nil {
			t.Fatal(err)
		}
		if err := SetKernel(KernelAVX512); err == nil {
			t.Fatalf("SetKernel(avx512) accepted without hardware support (from %s)", tier)
		}
		if KernelTier() != tier {
			t.Fatalf("a refused SetKernel(avx512) changed the tier from %s to %s", tier, KernelTier())
		}
	}
}

// TestGemmAVX512MatchesAVX2: the avx512 tier's GEMM is the avx2 tier's
// bit for bit. Every m from 1 to 40 (16-row blocks with every mix of
// 8-row tiles, a 4-row tail block and single rows), widths with and
// without a lone 8-wide tile or an edge, k inside one panel, on a panel
// boundary and across several, with no epilogue (C += A·B on a
// non-zero C), a bias, and a bias and ReLU, at 1, 2 and 3 workers
// (whose row shards start off any multiple of 16).
func TestGemmAVX512MatchesAVX2(t *testing.T) {
	if !kernelSupported(KernelAVX512) {
		t.Skip("no AVX-512F with OS ZMM state on this machine; avx512 tier untestable")
	}
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(48))
	const maxM = 40
	for _, k := range []int{13, 64, 65, 512} {
		aAll := randSlice(rng, maxM*k)
		for _, n := range []int{1, 8, 16, 24, 27, 40, 2560} {
			pb := PackB(FromSlice(randSlice(rng, k*n), k, n))
			bias := randSlice(rng, n)
			cAll := randSlice(rng, maxM*n)
			for m := 1; m <= maxM; m++ {
				a := FromSlice(aAll[:m*k], m, k)
				for _, ep := range []epilogue{{}, {bias: bias}, {bias: bias, relu: true}} {
					for _, workers := range []int{1, 2, 3} {
						var out [2][]float32
						for i, tier := range []string{KernelAVX2, KernelAVX512} {
							if err := SetKernel(tier); err != nil {
								t.Fatal(err)
							}
							c := FromSlice(slices.Clone(cAll[:m*n]), m, n)
							parallelGemmPacked(a, pb, c, workers, ep)
							out[i] = c.data
						}
						if i := firstBitDiff(out[1], out[0]); i >= 0 {
							t.Fatalf("m=%d k=%d n=%d bias=%v relu=%v workers=%d: element (%d,%d) avx512 %v (%#08x), avx2 %v (%#08x)",
								m, k, n, ep.bias != nil, ep.relu, workers, i/n, i%n,
								out[1][i], math.Float32bits(out[1][i]), out[0][i], math.Float32bits(out[0][i]))
						}
					}
				}
			}
		}
	}
}

// TestPoolRowsF32BitIdentical: both tiers pool a bag to the same bits
// as adding its rows one at a time, at every width from 1 to 72 (the
// register path's multiples of 8 up to 64, the memory path's rest, and
// the Go tier's fixed-width 32 and 64), for bags of 0–80 IDs with
// repeats and the first and last rows, into a non-zero dst.
func TestPoolRowsF32BitIdentical(t *testing.T) {
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(21))
	const nRows = 50
	for cols := 1; cols <= 72; cols++ {
		rows := randSlice(rng, nRows*cols)
		for _, bag := range []int{0, 1, 2, 7, 8, 9, 17, 80} {
			ids := make([]int, bag)
			for i := range ids {
				ids[i] = rng.Intn(nRows)
			}
			if bag >= 3 {
				ids[0], ids[1], ids[bag-1] = 0, nRows-1, ids[2] // first, last, a repeat
			}
			init := randSlice(rng, cols)
			want := slices.Clone(init)
			for _, id := range ids {
				for i, v := range rows[id*cols : (id+1)*cols] {
					want[i] += v
				}
			}
			for _, tier := range availableTiers(t) {
				if err := SetKernel(tier); err != nil {
					t.Fatal(err)
				}
				got := slices.Clone(init)
				PoolRowsF32(got, rows, ids)
				if !bitsEqualF32(got, want) {
					t.Fatalf("cols=%d bag=%d %s: pooled row differs from adding the rows one at a time", cols, bag, tier)
				}
			}
		}
	}
}

// TestPoolRowsF32Panics: an ID outside the table, or naming a row the
// table holds only part of, panics on both tiers before dst is touched.
func TestPoolRowsF32Panics(t *testing.T) {
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rows := randSlice(rand.New(rand.NewSource(23)), 4*32)
	for _, tier := range availableTiers(t) {
		if err := SetKernel(tier); err != nil {
			t.Fatal(err)
		}
		for name, call := range map[string]func([]float32){
			"id past end": func(dst []float32) { PoolRowsF32(dst, rows, []int{0, 4}) },
			"negative id": func(dst []float32) { PoolRowsF32(dst, rows, []int{1, -1}) },
			"partial row": func(dst []float32) { PoolRowsF32(dst, rows[:4*32-1], []int{0, 3}) },
		} {
			dst := make([]float32, 32)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic", tier, name)
					}
				}()
				call(dst)
			}()
			if slices.ContainsFunc(dst, func(v float32) bool { return v != 0 }) {
				t.Errorf("%s %s: dst written before the panic", tier, name)
			}
		}
	}
}

// randI8Rows returns n fused int8 rows of cols codes at the given
// stride: scale, offset, codes, and junk in any padding past them.
func randI8Rows(rng *rand.Rand, n, cols, stride int) []byte {
	rows := make([]byte, n*stride)
	rng.Read(rows)
	for r := 0; r < n; r++ {
		row := rows[r*stride:]
		binary.LittleEndian.PutUint32(row, math.Float32bits(float32(rng.Float64()*0.01)))
		binary.LittleEndian.PutUint32(row[4:], math.Float32bits(float32(rng.NormFloat64())))
	}
	return rows
}

// TestDequantRowI8BitIdentical: DequantRowI8 is the scalar formula,
// and pooling one row into a zeroed dst gives the same bits on both
// tiers.
func TestDequantRowI8BitIdentical(t *testing.T) {
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 7, 8, 9, 32, 33, 64, 127} {
		row := randI8Rows(rng, 1, n, n+8)
		scale := math.Float32frombits(binary.LittleEndian.Uint32(row))
		offset := math.Float32frombits(binary.LittleEndian.Uint32(row[4:]))
		got := make([]float32, n)
		DequantRowI8(got, row)
		for i, b := range row[8:] {
			want := float32((float32(int8(b))+128)*scale) + offset
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d: DequantRowI8[%d] = %v, want %v", n, i, got[i], want)
			}
		}
		for _, tier := range availableTiers(t) {
			if err := SetKernel(tier); err != nil {
				t.Fatal(err)
			}
			pooled := make([]float32, n)
			PoolRowsI8(pooled, n, row, n+8, []int{0})
			if !bitsEqualF32(pooled, got) {
				t.Fatalf("n=%d %s: pooling one row into zeros differs from DequantRowI8", n, tier)
			}
		}
	}
}

// TestPoolRowsI8BitIdentical: every tier pools a call's bags to the
// same bits as a per-row dequantize-then-add oracle, at every width
// from 1 to 72 (the register path's multiples of 8 up to 64, and the
// memory path's rest), for 1, 2, 3
// and 17 bags a call of 0, 1, i8PrefetchAhead±1 and 80 IDs (so the
// prefetch guard's edges fall inside, at and across bag boundaries),
// with the first and last rows and IDs that repeat within and across
// bags, into a non-zero dst, with and without padding in the stride.
func TestPoolRowsI8BitIdentical(t *testing.T) {
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(24))
	const nRows = 50
	lookups := []int{0, 1, i8PrefetchAhead - 1, i8PrefetchAhead, i8PrefetchAhead + 1, 80}
	for cols := 1; cols <= 72; cols++ {
		for _, pad := range []int{0, 3} {
			stride := cols + 8 + pad
			rows := randI8Rows(rng, nRows, cols, stride)
			for _, bags := range []int{1, 2, 3, 17} {
				for _, l := range lookups {
					ids := make([]int, bags*l)
					for i := range ids {
						ids[i] = rng.Intn(nRows)
					}
					if len(ids) >= 3 {
						ids[0], ids[1] = 0, nRows-1 // first, last
						ids[len(ids)-1] = ids[2]    // a repeat, across bags when l < 3
					}
					if bags > 1 && l > 0 {
						ids[l] = ids[l-1] // the same row ends one bag and starts the next
					}
					init := randSlice(rng, bags*cols)
					want := slices.Clone(init)
					deq := make([]float32, cols)
					for i, id := range ids {
						DequantRowI8(deq, rows[id*stride:id*stride+cols+8])
						k := i / l
						for c, v := range deq {
							want[k*cols+c] += v
						}
					}
					for _, tier := range availableTiers(t) {
						if err := SetKernel(tier); err != nil {
							t.Fatal(err)
						}
						got := slices.Clone(init)
						PoolRowsI8(got, cols, rows, stride, ids)
						if !bitsEqualF32(got, want) {
							t.Fatalf("cols=%d stride=%d bags=%d lookups=%d %s: pooled rows differ from dequantize-then-add", cols, stride, bags, l, tier)
						}
					}
				}
			}
		}
	}
}

// TestPoolRowsI8Panics: an ID outside the table (also in the last bag
// of a multi-bag call), a stride too short for a row, or IDs that do not
// split into dst's bags panics on every tier, before dst is touched.
func TestPoolRowsI8Panics(t *testing.T) {
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rows := randI8Rows(rand.New(rand.NewSource(25)), 4, 32, 40)
	for _, tier := range availableTiers(t) {
		if err := SetKernel(tier); err != nil {
			t.Fatal(err)
		}
		for name, call := range map[string]func([]float32){
			"id past end":       func(dst []float32) { PoolRowsI8(dst[:32], 32, rows, 40, []int{0, 4}) },
			"negative id":       func(dst []float32) { PoolRowsI8(dst[:32], 32, rows, 40, []int{1, -1}) },
			"short stride":      func(dst []float32) { PoolRowsI8(dst[:32], 32, rows, 39, []int{0}) },
			"id in last bag":    func(dst []float32) { PoolRowsI8(dst, 32, rows, 40, []int{0, 1, 2, 3, 3, 4}) },
			"ragged bags":       func(dst []float32) { PoolRowsI8(dst, 32, rows, 40, []int{0, 1, 2, 3}) },
			"ragged dst":        func(dst []float32) { PoolRowsI8(dst[:40], 32, rows, 40, []int{0}) },
			"ids without a bag": func(dst []float32) { PoolRowsI8(dst[:0], 32, rows, 40, []int{0}) },
		} {
			dst := make([]float32, 3*32)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic", tier, name)
					}
				}()
				call(dst)
			}()
			if slices.ContainsFunc(dst, func(v float32) bool { return v != 0 }) {
				t.Errorf("%s %s: dst written before the panic", tier, name)
			}
		}
	}
}

func bitsEqualF32(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

func TestFloatsClose(t *testing.T) {
	if !FloatsClose([]float32{1, 2}, []float32{1, 2}, 0, 0) {
		t.Fatal("identical slices not close")
	}
	if FloatsClose([]float32{1}, []float32{1, 2}, 1, 1) {
		t.Fatal("length mismatch reported close")
	}
	if !FloatsClose([]float32{1.00001}, []float32{1}, 1e-4, 0) {
		t.Fatal("within rtol not close")
	}
	if FloatsClose([]float32{1.1}, []float32{1}, 1e-4, 0) {
		t.Fatal("outside rtol reported close")
	}
	if !FloatsClose([]float32{1e-7}, []float32{0}, 0, 1e-6) {
		t.Fatal("within atol not close")
	}
}

// FuzzGemmKernelEquiv randomizes shapes (including ragged edges and
// k-panel crossings) and row ranges, asserting the AVX2 GEMM kernel
// stays within the relative-epsilon contract of the Go reference, and,
// where the CPU has AVX-512, that the avx512 tier's rows are the avx2
// tier's bit for bit.
func FuzzGemmKernelEquiv(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(0), int64(1))
	f.Add(uint8(7), uint8(13), uint8(9), uint8(2), int64(2))
	f.Add(uint8(33), uint8(129), uint8(40), uint8(9), int64(3))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(4))
	f.Add(uint8(17), uint8(64), uint8(7), uint8(16), int64(5))
	// m % 8 from 4 to 7: a 4×8 tail block, alone or before 1–3 rows.
	f.Add(uint8(3), uint8(70), uint8(19), uint8(0), int64(6))
	f.Add(uint8(12), uint8(129), uint8(16), uint8(0), int64(7))
	f.Add(uint8(13), uint8(33), uint8(9), uint8(1), int64(8))
	f.Add(uint8(38), uint8(150), uint8(40), uint8(3), int64(9))
	// A 16-row block from a shard-like offset, with a pair, a lone tile and an edge.
	f.Add(uint8(35), uint8(64), uint8(27), uint8(5), int64(10))
	f.Fuzz(func(t *testing.T, mr, kr, nr8, lor uint8, seed int64) {
		if !kernelSupported(KernelAVX2) {
			t.Skip("no AVX2/FMA")
		}
		m := int(mr)%40 + 1
		k := int(kr)%150 + 1 // crosses the 64-row panel boundary
		n := int(nr8)%50 + 1
		lo := int(lor) % m
		prev := KernelTier()
		defer func() { _ = SetKernel(prev) }()
		tiers := []string{KernelAVX2}
		if kernelSupported(KernelAVX512) {
			tiers = append(tiers, KernelAVX512)
		}
		var asm [][]float32
		for _, tier := range tiers {
			if err := SetKernel(tier); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			goC, asmC := runBothGemmTiers(rng, m, k, n, lo, m)
			if !FloatsClose(asmC, goC, gemmRtolOf(k), gemmAtol(k)) {
				t.Errorf("m=%d k=%d n=%d lo=%d seed=%d: %s GEMM beyond rtol of Go reference", m, k, n, lo, seed, tier)
			}
			asm = append(asm, asmC)
		}
		if len(asm) == 2 {
			if i := firstBitDiff(asm[1], asm[0]); i >= 0 {
				t.Errorf("m=%d k=%d n=%d lo=%d seed=%d: avx512 GEMM differs from avx2 at element %d", m, k, n, lo, seed, i)
			}
		}
	})
}
