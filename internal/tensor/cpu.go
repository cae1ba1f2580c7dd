package tensor

import (
	"fmt"
	"os"
)

// Kernel tiers. The package selects the fastest supported tier once at
// init; RECSYS_KERNEL overrides the choice (for CI legs that must
// exercise the portable kernels, or the YMM GEMM kernels, on AVX-512
// hardware, and for A/B measurement of one binary), and SetKernel
// switches it between passes (tests, cmd/recbench -fig10).
//
// Numerics contract: the KernelGo tier is the reference — its results
// are bit-identical across platforms and releases. KernelAVX2 fuses
// each multiply-add of the GEMM inner loop into one FMA (one rounding
// instead of two) and re-associates edge-row accumulation, so fp32
// GEMM results differ from the Go tier by a relative epsilon
// (FloatsClose is the shared assert for that comparison). KernelAVX512
// changes only the packed fp32 GEMM, which runs every full 16-row block
// through a ZMM kernel, and is bit-identical to KernelAVX2: each output
// element is the same fused FMA chain in ascending p with the same
// epilogue, whichever kernel ran it (the one exception is the payload
// of a NaN produced from an A and a B factor that are both NaN). The
// fused FC epilogue (ParallelGemmPackedBias) adds nothing to that
// epsilon: on each tier it is bit-identical to the same tier's
// GemmPacked into a zeroed C, then AddBiasRows, then
// `if v < 0 { v = 0 }` — the bias add keeps the accumulator as the
// first source, and the assembly ReLU is MAX(0, v) in the operand order
// that keeps −0 and NaN. Within a tier a GEMM row's bits do not depend
// on which micro-kernel (16-row or 8-row tile, 4-row tail block or
// single row) or which shard computed it. The SLS kernels (PoolRowsF32,
// PoolRowsI8) deliberately avoid FMA and keep the per-element operation
// order, so both are bit-identical across tiers; how many bags a call
// pools and how far ahead it prefetches change no arithmetic.
//
// KernelAVX512 also selects one kernel outside this package, when the
// CPU has the byte-permute set as well (UseAVX512VBMI): the engine's
// 64-byte ID-list scan. It parses integers, so it has no numerics of
// its own: it takes only what the scalar parser would take, with the
// same values.
const (
	KernelGo     = "go"
	KernelAVX2   = "avx2"
	KernelAVX512 = "avx512"
)

// kernelEnv is the environment variable consulted once at init to
// force a tier: RECSYS_KERNEL=go pins the portable reference kernels,
// RECSYS_KERNEL=avx2 the YMM assembly tier, RECSYS_KERNEL=avx512 the
// ZMM GEMM on top of it (a tier the CPU lacks is refused with a
// warning, leaving the one selected at init).
const kernelEnv = "RECSYS_KERNEL"

var (
	// hasAVX2FMA records hardware+OS support (CPUID AVX2 and FMA, OS
	// YMM state saving), detected once at init; hasAVX512 adds
	// AVX-512F and OS ZMM state saving on top of it, and hasVBMI the
	// byte-permute and bit-manipulation set on top of that
	// (detectVBMI).
	hasAVX2FMA, hasAVX512, hasVBMI bool
	// useAVX2 and useAVX512 are the active selection consulted by every
	// dispatching kernel (useAVX512 implies useAVX2). They are written
	// at init and by SetKernel; SetKernel must not race with running
	// kernels (switch tiers only while no inference is in flight —
	// tests and recbench sweeps do).
	useAVX2, useAVX512 bool
)

func init() {
	hasAVX2FMA = detectAVX2FMA()
	hasAVX512 = hasAVX2FMA && detectAVX512()
	hasVBMI = hasAVX512 && detectVBMI()
	useAVX2, useAVX512 = hasAVX2FMA, hasAVX512
	if env := os.Getenv(kernelEnv); env != "" {
		if err := SetKernel(env); err != nil {
			fmt.Fprintf(os.Stderr, "tensor: %s=%q ignored: %v\n", kernelEnv, env, err)
		}
	}
}

// KernelTier returns the active kernel tier (KernelGo, KernelAVX2 or
// KernelAVX512).
func KernelTier() string {
	switch {
	case useAVX512:
		return KernelAVX512
	case useAVX2:
		return KernelAVX2
	}
	return KernelGo
}

// UseAVX512VBMI reports whether the avx512 tier is active on a CPU
// that also has AVX512BW, AVX512_VBMI, AVX512_VBMI2, BMI1, BMI2, LZCNT
// and POPCNT: the condition under which the engine decodes ID lists a
// 64-byte block at a time. RECSYS_KERNEL=avx2 or go turns it off with
// the rest of the tier.
func UseAVX512VBMI() bool { return useAVX512 && hasVBMI }

// SetKernel selects the active kernel tier. It returns an error (and
// leaves the selection unchanged) for an unknown tier or one this
// machine cannot run. Not safe to call concurrently with running
// kernels: switch tiers only between passes.
func SetKernel(tier string) error {
	switch tier {
	case KernelGo:
		useAVX2, useAVX512 = false, false
	case KernelAVX2:
		if !hasAVX2FMA {
			return fmt.Errorf("tensor: kernel tier %q not supported on this CPU (need AVX2+FMA)", tier)
		}
		useAVX2, useAVX512 = true, false
	case KernelAVX512:
		if !hasAVX512 {
			return fmt.Errorf("tensor: kernel tier %q not supported on this CPU (need AVX-512F with OS ZMM state on top of AVX2+FMA)", tier)
		}
		useAVX2, useAVX512 = true, true
	default:
		return fmt.Errorf("tensor: unknown kernel tier %q (want %q, %q or %q)", tier, KernelGo, KernelAVX2, KernelAVX512)
	}
	return nil
}

// FloatsClose reports whether got and want have equal length and every
// pair differs by at most atol + rtol·|want|. It is the shared assert
// for asm-vs-Go fp32 comparisons, where FMA fusion makes bit equality
// the wrong standard: a fused multiply-add performs one rounding where
// the Go tier performs two, so a relative epsilon is the legitimate
// bound. (The pure-Go tier stays bit-exact and does not need this.)
func FloatsClose(got, want []float32, rtol, atol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		diff := float64(got[i]) - float64(want[i])
		if diff < 0 {
			diff = -diff
		}
		ref := float64(want[i])
		if ref < 0 {
			ref = -ref
		}
		if diff > atol+rtol*ref {
			return false
		}
	}
	return true
}

// TensorsClose is FloatsClose over two tensors, requiring equal shapes.
func TensorsClose(a, b *Tensor, rtol, atol float64) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return FloatsClose(a.data, b.data, rtol, atol)
}

// GemmBitExact reports whether the active tier's GEMM kernels are
// bit-identical to the pure-Go reference. Equivalence tests branch on
// this: exact comparison on the Go tier, GemmTol epsilon on AVX2.
func GemmBitExact() bool { return !useAVX2 }

// GemmTol returns the numerics-contract tolerances for comparing a
// tier-dispatched GEMM result (inner dimension k) against the pure-Go
// reference: rtol covers the per-FMA rounding difference on
// well-conditioned outputs, while atol grows with k because a
// cancelling dot product can land near zero while its rounding drift
// scales with the sum of term magnitudes (measured drift at k=512 is
// ~3e-5; 1e-6·k leaves ~20× margin).
func GemmTol(k int) (rtol, atol float64) { return 1e-5, 1e-6 * float64(k) }

// GemmClose compares a GEMM output against the reference under the
// active tier's contract: bit equality on the Go tier, GemmTol(k)
// epsilon otherwise. k is the GEMM inner dimension (use the largest
// layer width when comparing whole-network outputs).
func GemmClose(got, want *Tensor, k int) bool {
	if GemmBitExact() {
		return Equal(got, want, 0)
	}
	rtol, atol := GemmTol(k)
	return TensorsClose(got, want, rtol, atol)
}
