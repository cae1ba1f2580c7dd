//go:build amd64

package tensor

// cpuid executes the CPUID instruction with the given leaf/subleaf.
// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled XSAVE state
// mask). Only valid when CPUID reports OSXSAVE. Implemented in
// cpu_amd64.s.
func xgetbv() (eax, edx uint32)

// detectAVX2FMA reports whether this CPU and OS can run the AVX2/FMA
// kernel tier: the CPU must advertise AVX, FMA, and AVX2, and the OS
// must save the XMM+YMM register state across context switches
// (XCR0 bits 1 and 2) — the same checks Go's runtime performs for its
// own AVX2 memmove.
func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		cpuidFMA     = 1 << 12 // leaf 1 ECX
		cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
		cpuidAVX     = 1 << 28 // leaf 1 ECX
		cpuidAVX2    = 1 << 5  // leaf 7 EBX
		xcr0XMM      = 1 << 1
		xcr0YMM      = 1 << 2
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuidFMA == 0 || ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&(xcr0XMM|xcr0YMM) != xcr0XMM|xcr0YMM {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX2 != 0
}

// detectAVX512 reports whether this CPU and OS can also run the avx512
// tier's GEMM kernel: CPUID leaf 7 must advertise AVX-512F, and the OS
// must save the opmask and full ZMM register state (XCR0 bits 5–7).
// Every instruction gemmKernel16x16 uses is AVX-512F. The caller has
// already checked AVX2, FMA and OSXSAVE (detectAVX2FMA).
func detectAVX512() bool {
	const (
		cpuidAVX512F = 1 << 16 // leaf 7 EBX
		xcr0Opmask   = 1 << 5
		xcr0ZMMHi256 = 1 << 6
		xcr0Hi16ZMM  = 1 << 7
		xcr0ZMM      = xcr0Opmask | xcr0ZMMHi256 | xcr0Hi16ZMM
	)
	if xcr0, _ := xgetbv(); xcr0&xcr0ZMM != xcr0ZMM {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuidAVX512F != 0
}

// detectVBMI reports whether this CPU also has the byte-granular
// AVX-512 set and the bit-manipulation instructions the engine's
// 64-byte ID-list scan uses: AVX512BW (byte compares into masks),
// AVX512_VBMI (VPERMB), AVX512_VBMI2 (VPCOMPRESSB), BMI1 (BLSMSK,
// ANDN), BMI2 (BZHI), LZCNT and POPCNT. The caller has already checked
// AVX-512F and the OS's ZMM state (detectAVX512).
func detectVBMI() bool {
	const (
		cpuidPOPCNT    = 1 << 23 // leaf 1 ECX
		cpuidBMI1      = 1 << 3  // leaf 7 EBX
		cpuidBMI2      = 1 << 8  // leaf 7 EBX
		cpuidAVX512BW  = 1 << 30 // leaf 7 EBX
		cpuidVBMI      = 1 << 1  // leaf 7 ECX
		cpuidVBMI2     = 1 << 6  // leaf 7 ECX
		cpuidLZCNT     = 1 << 5  // leaf 0x80000001 ECX
		leaf7EBX       = cpuidBMI1 | cpuidBMI2 | cpuidAVX512BW
		leaf7ECX       = cpuidVBMI | cpuidVBMI2
		extendedLeaves = 0x80000000
	)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	if ecx1&cpuidPOPCNT == 0 || ebx7&leaf7EBX != leaf7EBX || ecx7&leaf7ECX != leaf7ECX {
		return false
	}
	if maxExt, _, _, _ := cpuid(extendedLeaves, 0); maxExt < extendedLeaves+1 {
		return false
	}
	_, _, ecxExt, _ := cpuid(extendedLeaves+1, 0)
	return ecxExt&cpuidLZCNT != 0
}
