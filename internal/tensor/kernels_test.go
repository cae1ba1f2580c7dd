package tensor

import (
	"math/rand"
	"testing"
)

// Equivalence policy (see cpu.go): fp32 GEMM comparisons between the
// AVX2/FMA tier and the Go reference use FloatsClose — fused rounding
// differs legitimately — while AddF32 and DequantI8 must be
// bit-identical across tiers. The pure-Go tier is bit-exact by
// definition (it IS the reference).

// The tolerances are the package contract (see GemmTol's rationale);
// these wrappers keep the assert call sites short.
func gemmRtolOf(k int) float64 { rtol, _ := GemmTol(k); return rtol }
func gemmAtol(k int) float64   { _, atol := GemmTol(k); return atol }

func requireAVX2(t testing.TB) {
	t.Helper()
	if !KernelSupported(KernelAVX2) {
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
	gemmPackedRowsGo(a.data, pb, goC, lo, hi, 0, k, k, n)
	gemmPackedRowsAVX2(a.data, pb, asmC, lo, hi, 0, k, k, n)
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

	if KernelSupported(KernelAVX2) {
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
	if !KernelSupported(KernelGo) {
		t.Fatal("go tier must always be supported")
	}
	if err := SetKernel(KernelGo); err != nil {
		t.Fatal(err)
	}
	if KernelTier() != KernelGo {
		t.Fatalf("tier = %q after SetKernel(go)", KernelTier())
	}
	if !KernelSupported(KernelAVX2) {
		if err := SetKernel(KernelAVX2); err == nil {
			t.Fatal("SetKernel(avx2) must fail without hardware support")
		}
	}
}

func TestAddF32BitIdentical(t *testing.T) {
	requireAVX2(t)
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 100, 129} {
		src := randSlice(rng, n)
		dstGo := randSlice(rng, n)
		dstAsm := make([]float32, n)
		copy(dstAsm, dstGo)
		if err := SetKernel(KernelGo); err != nil {
			t.Fatal(err)
		}
		AddF32(dstGo, src)
		if err := SetKernel(KernelAVX2); err != nil {
			t.Fatal(err)
		}
		AddF32(dstAsm, src)
		for i := range dstGo {
			if dstGo[i] != dstAsm[i] {
				t.Fatalf("n=%d: AddF32 tiers differ at %d: %v vs %v", n, i, dstGo[i], dstAsm[i])
			}
		}
	}
}

func TestDequantI8BitIdentical(t *testing.T) {
	requireAVX2(t)
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 7, 8, 9, 32, 33, 64, 127} {
		codes := make([]int8, n)
		for i := range codes {
			codes[i] = int8(rng.Intn(256) - 128)
		}
		scale := float32(rng.Float64() * 0.01)
		offset := float32(rng.NormFloat64())
		dstGo := make([]float32, n)
		dstAsm := make([]float32, n)
		if err := SetKernel(KernelGo); err != nil {
			t.Fatal(err)
		}
		DequantI8(dstGo, codes, scale, offset)
		if err := SetKernel(KernelAVX2); err != nil {
			t.Fatal(err)
		}
		DequantI8(dstAsm, codes, scale, offset)
		for i := range dstGo {
			if dstGo[i] != dstAsm[i] {
				t.Fatalf("n=%d: DequantI8 tiers differ at %d: %v vs %v", n, i, dstGo[i], dstAsm[i])
			}
		}
	}
}

func TestDequantAccumI8BitIdentical(t *testing.T) {
	requireAVX2(t)
	prev := KernelTier()
	defer func() { _ = SetKernel(prev) }()
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 7, 8, 9, 32, 33, 64, 127} {
		codes := make([]int8, n)
		for i := range codes {
			codes[i] = int8(rng.Intn(256) - 128)
		}
		scale := float32(rng.Float64() * 0.01)
		offset := float32(rng.NormFloat64())
		dstGo := randSlice(rng, n) // non-zero: the accumulate must match
		dstAsm := make([]float32, n)
		staged := make([]float32, n)
		copy(dstAsm, dstGo)
		staged2 := append([]float32(nil), dstGo...)
		if err := SetKernel(KernelGo); err != nil {
			t.Fatal(err)
		}
		DequantAccumI8(dstGo, codes, scale, offset)
		// Fused must equal dequantize-then-AddF32 on the Go tier too.
		DequantI8(staged, codes, scale, offset)
		AddF32(staged2, staged)
		if err := SetKernel(KernelAVX2); err != nil {
			t.Fatal(err)
		}
		DequantAccumI8(dstAsm, codes, scale, offset)
		for i := range dstGo {
			if dstGo[i] != dstAsm[i] {
				t.Fatalf("n=%d: DequantAccumI8 tiers differ at %d: %v vs %v", n, i, dstGo[i], dstAsm[i])
			}
			if dstGo[i] != staged2[i] {
				t.Fatalf("n=%d: fused accumulate differs from dequant-then-add at %d", n, i)
			}
		}
	}
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
// stays within the relative-epsilon contract of the Go reference.
func FuzzGemmKernelEquiv(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(0), int64(1))
	f.Add(uint8(7), uint8(13), uint8(9), uint8(2), int64(2))
	f.Add(uint8(33), uint8(129), uint8(40), uint8(9), int64(3))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(4))
	f.Add(uint8(17), uint8(64), uint8(7), uint8(16), int64(5))
	f.Fuzz(func(t *testing.T, mr, kr, nr8, lor uint8, seed int64) {
		if !KernelSupported(KernelAVX2) {
			t.Skip("no AVX2/FMA")
		}
		m := int(mr)%40 + 1
		k := int(kr)%150 + 1 // crosses the 64-row panel boundary
		n := int(nr8)%50 + 1
		lo := int(lor) % m
		rng := rand.New(rand.NewSource(seed))
		goC, asmC := runBothGemmTiers(rng, m, k, n, lo, m)
		if !FloatsClose(asmC, goC, gemmRtolOf(k), gemmAtol(k)) {
			t.Errorf("m=%d k=%d n=%d lo=%d seed=%d: AVX2 GEMM beyond rtol of Go reference", m, k, n, lo, seed)
		}
	})
}
