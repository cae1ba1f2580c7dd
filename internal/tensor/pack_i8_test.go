package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// availableTiers lists the kernel tiers testable on this host.
func availableTiers(testing.TB) []string {
	tiers := []string{KernelGo}
	if KernelSupported(KernelAVX2) {
		tiers = append(tiers, KernelAVX2)
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

// refGemmI8 is the obviously-correct reference: per output element,
// one scalar integer dot over the original (unpacked) codes plus the
// same fixed float epilogue sequence. GemmI8 on every tier must match
// it bit-for-bit.
func refGemmI8(x []int16, sx []float32, zp []int32, codes []int8, k, n int, scale []float32, colSum []int32, bias []float32, y []float32, batch, ks int) {
	for r := 0; r < batch; r++ {
		for j := 0; j < n; j++ {
			var dot int32
			col := codes[j*k : (j+1)*k]
			for i := 0; i < k; i++ {
				dot += int32(x[r*ks+i]) * int32(col[i])
			}
			var bj float32
			if bias != nil {
				bj = bias[j]
			}
			y[r*n+j] = float32(dot-zp[r]*colSum[j])*(sx[r]*scale[j]) + bj
		}
	}
}

// randI8Problem builds a random quantized GEMM problem: codes in
// weight range [-127, 127], activations in uint8 range, realistic
// scales, exact colSums.
func randI8Problem(rng *rand.Rand, batch, k, n int, withBias bool) (x []int16, sx []float32, zp []int32, codes []int8, scale []float32, colSum []int32, bias []float32, pb *PackedBI8) {
	codes = make([]int8, k*n)
	for i := range codes {
		codes[i] = int8(rng.Intn(255) - 127)
	}
	scale = make([]float32, n)
	colSum = make([]int32, n)
	for j := 0; j < n; j++ {
		scale[j] = float32(rng.Float64()*0.02 + 1e-4)
		var s int32
		for i := 0; i < k; i++ {
			s += int32(codes[j*k+i])
		}
		colSum[j] = s
	}
	pb = PackBI8(codes, k, n, scale, colSum)
	ks := pb.KStride()
	x = make([]int16, batch*ks)
	for i := range x {
		x[i] = int16(rng.Intn(256)) // garbage also lands in pad lanes — must not matter
	}
	sx = make([]float32, batch)
	zp = make([]int32, batch)
	for r := 0; r < batch; r++ {
		sx[r] = float32(rng.Float64()*0.05 + 1e-4)
		zp[r] = int32(rng.Intn(256))
	}
	if withBias {
		bias = make([]float32, n)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64())
		}
	}
	return
}

// i8Shapes exercises every edge the pack layout has: k not a multiple
// of 4, n remainder below the tile width, single/empty A, and rows
// around the mrI8 micro-tile boundary.
var i8Shapes = []struct{ batch, k, n int }{
	{0, 16, 8},   // empty A: no output rows at all
	{1, 16, 8},   // single row → 1×8 kernel only
	{1, 1, 1},    // minimal everything
	{3, 7, 5},    // k%4=3, n%8=5, batch < mrI8
	{4, 8, 8},    // exactly one 4×8 pass
	{5, 12, 16},  // one 4-row block + remainder row
	{8, 64, 24},  // multiple tiles, clean k
	{9, 33, 17},  // odd everything
	{16, 31, 40}, // k%4=3 across several blocks
	{2, 4, 31},   // tail tile dominates
	{6, 130, 9},  // k pad + 1-col tail tile
}

func TestGemmI8MatchesReference(t *testing.T) {
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			restore := setTierForTest(t, tier)
			defer restore()
			rng := rand.New(rand.NewSource(42))
			for _, sh := range i8Shapes {
				for _, withBias := range []bool{false, true} {
					x, sx, zp, codes, scale, colSum, bias, pb := randI8Problem(rng, sh.batch, sh.k, sh.n, withBias)
					got := make([]float32, sh.batch*sh.n)
					want := make([]float32, sh.batch*sh.n)
					GemmI8(x, sx, zp, pb, bias, got, sh.batch)
					refGemmI8(x, sx, zp, codes, sh.k, sh.n, scale, colSum, bias, want, sh.batch, pb.KStride())
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("shape %v bias=%v: y[%d] = %g, want %g (bit-exact)", sh, withBias, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

func TestParallelGemmI8BitIdenticalToSerial(t *testing.T) {
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			restore := setTierForTest(t, tier)
			defer restore()
			rng := rand.New(rand.NewSource(7))
			for _, sh := range []struct{ batch, k, n int }{{37, 33, 17}, {128, 64, 40}, {256, 96, 48}} {
				x, sx, zp, _, _, _, bias, pb := randI8Problem(rng, sh.batch, sh.k, sh.n, true)
				serial := make([]float32, sh.batch*sh.n)
				GemmI8(x, sx, zp, pb, bias, serial, sh.batch)
				for _, workers := range []int{2, 3, 5, 8} {
					par := make([]float32, sh.batch*sh.n)
					// Run the sharded path directly so a 1-CPU host still
					// exercises multi-shard partitions.
					ParallelFor(sh.batch, workers, func(lo, hi int) {
						gemmI8Rows(x, sx, zp, pb, bias, par, lo, hi)
					})
					for i := range serial {
						if par[i] != serial[i] {
							t.Fatalf("shape %v workers=%d: y[%d] = %g, want %g", sh, workers, i, par[i], serial[i])
						}
					}
					par2 := make([]float32, sh.batch*sh.n)
					ParallelGemmI8(x, sx, zp, pb, bias, par2, sh.batch, workers)
					for i := range serial {
						if par2[i] != serial[i] {
							t.Fatalf("shape %v ParallelGemmI8 workers=%d: y[%d] = %g, want %g", sh, workers, i, par2[i], serial[i])
						}
					}
				}
			}
		})
	}
}

func TestPackBI8PadLanesAreZero(t *testing.T) {
	k, n := 7, 13 // kq=2 (one pad k), tiles=2 (3 pad columns)
	codes := make([]int8, k*n)
	for i := range codes {
		codes[i] = int8(i%255 - 127)
	}
	scale := make([]float32, n)
	colSum := make([]int32, n)
	for j := range scale {
		scale[j] = 1
	}
	pb := PackBI8(codes, k, n, scale, colSum)
	if pb.KStride() != 8 {
		t.Fatalf("KStride = %d, want 8", pb.KStride())
	}
	if pb.Tiles() != 2 {
		t.Fatalf("Tiles = %d, want 2", pb.Tiles())
	}
	// Every packed byte must either be a source code or zero; count
	// non-zeros and verify round-trip per (i, j).
	for j := 0; j < n; j++ {
		tl := pb.codes[(j/nrI8)*pb.kq*quadK*nrI8:]
		c := j % nrI8
		for i := 0; i < pb.KStride(); i++ {
			got := tl[(i/quadK)*quadK*nrI8+c*quadK+i%quadK]
			var want int8
			if i < k {
				want = codes[j*k+i]
			}
			if got != want {
				t.Fatalf("packed[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestPackBI8DegenerateK(t *testing.T) {
	pb := PackBI8(nil, 0, 3, []float32{1, 1, 1}, []int32{0, 0, 0})
	if pb.KStride() < quadK {
		t.Fatalf("KStride = %d, want >= %d", pb.KStride(), quadK)
	}
	x := make([]int16, 2*pb.KStride())
	y := make([]float32, 2*3)
	GemmI8(x, []float32{1, 1}, []int32{0, 0}, pb, []float32{5, 6, 7}, y, 2)
	want := []float32{5, 6, 7, 5, 6, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestMinMaxF32(t *testing.T) {
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			restore := setTierForTest(t, tier)
			defer restore()
			rng := rand.New(rand.NewSource(3))
			for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 200} {
				s := make([]float32, n)
				for i := range s {
					s[i] = float32(rng.NormFloat64() * 100)
				}
				lo, hi := MinMaxF32(s)
				wlo, whi := float32(0), float32(0)
				if n > 0 {
					wlo, whi = s[0], s[0]
					for _, v := range s {
						if v < wlo {
							wlo = v
						}
						if v > whi {
							whi = v
						}
					}
				}
				if lo != wlo || hi != whi {
					t.Fatalf("n=%d: MinMaxF32 = (%g, %g), want (%g, %g)", n, lo, hi, wlo, whi)
				}
			}
		})
	}
}

func TestQuantizeRowI16TierEquivalence(t *testing.T) {
	for _, tier := range availableTiers(t) {
		t.Run(tier, func(t *testing.T) {
			restore := setTierForTest(t, tier)
			defer restore()
			rng := rand.New(rand.NewSource(9))
			for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 100, 512} {
				src := make([]float32, n)
				for i := range src {
					src[i] = float32(rng.NormFloat64() * 10)
				}
				inv := float32(rng.Float64()*20 + 0.1)
				zpf := float32(rng.Intn(256)) + 0.5
				got := make([]int16, n)
				QuantizeRowI16(got, src, inv, zpf)
				want := make([]int16, n)
				quantizeRowI16Go(want, src, inv, zpf)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d: code[%d] = %d, want %d (src=%g inv=%g zpf=%g)", n, i, got[i], want[i], src[i], inv, zpf)
					}
				}
				// Spot-check the scalar definition itself.
				for i, v := range src {
					c := int32(math.Floor(float64(v*inv + zpf)))
					if c < 0 {
						c = 0
					} else if c > 255 {
						c = 255
					}
					if int32(want[i]) != c {
						t.Fatalf("scalar defn mismatch at %d", i)
					}
				}
			}
		})
	}
}

// FuzzGemmI8KernelEquiv cross-checks the two kernel tiers on random
// shapes and payloads: the int8 GEMM contract is bit-identical output
// across tiers (integer dots are exact; the float epilogue is one
// fixed sequence). Skips on hosts without the AVX2 tier.
func FuzzGemmI8KernelEquiv(f *testing.F) {
	f.Add(int64(1), 4, 16, 8)
	f.Add(int64(2), 3, 7, 5)
	f.Add(int64(3), 9, 33, 17)
	f.Add(int64(4), 1, 1, 1)
	f.Add(int64(5), 8, 130, 31)
	f.Fuzz(func(t *testing.T, seed int64, batch, k, n int) {
		if !KernelSupported(KernelAVX2) {
			t.Skip("AVX2 tier unavailable")
		}
		if batch < 0 || k < 1 || n < 1 || batch > 64 || k > 512 || n > 96 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		x, sx, zp, _, _, _, bias, pb := randI8Problem(rng, batch, k, n, seed%2 == 0)

		restore := setTierForTest(t, KernelGo)
		goOut := make([]float32, batch*n)
		GemmI8(x, sx, zp, pb, bias, goOut, batch)
		restore()

		restore = setTierForTest(t, KernelAVX2)
		asmOut := make([]float32, batch*n)
		GemmI8(x, sx, zp, pb, bias, asmOut, batch)
		restore()

		for i := range goOut {
			if goOut[i] != asmOut[i] {
				t.Fatalf("batch=%d k=%d n=%d: y[%d] go=%g avx2=%g", batch, k, n, i, goOut[i], asmOut[i])
			}
		}
	})
}

func BenchmarkGemmI8RM(b *testing.B) {
	benchGemmI8(b, 256, 512, 256)
}

func benchGemmI8(b *testing.B, batch, k, n int) {
	rng := rand.New(rand.NewSource(1))
	x, sx, zp, _, _, _, bias, pb := randI8Problem(rng, batch, k, n, true)
	y := make([]float32, batch*n)
	b.SetBytes(int64(2 * batch * k * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmI8(x, sx, zp, pb, bias, y, batch)
	}
	b.ReportMetric(2*float64(batch)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOPS")
}

func BenchmarkQuantizeRowI16(b *testing.B) {
	src := make([]float32, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]int16, 512)
	b.SetBytes(512 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeRowI16(dst, src, 42.5, 128.5)
	}
}

func ExamplePackedBI8_KStride() {
	pb := PackBI8(make([]int8, 7*3), 7, 3, make([]float32, 3), make([]int32, 3))
	fmt.Println(pb.KStride())
	// Output: 8
}
