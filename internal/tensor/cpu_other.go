//go:build !amd64

package tensor

// detectAVX2FMA, detectAVX512 and detectVBMI: non-amd64 builds have no assembly
// tier; the portable Go kernels (bit-identical to the amd64
// RECSYS_KERNEL=go tier) are the only option.
func detectAVX2FMA() bool { return false }

func detectAVX512() bool { return false }

func detectVBMI() bool { return false }
