//go:build !amd64

package tensor

// detectAVX2FMA and detectAVX512: non-amd64 builds have no assembly
// tier; the portable Go kernels (bit-identical to the amd64
// RECSYS_KERNEL=go tier) are the only option.
func detectAVX2FMA() bool { return false }

func detectAVX512() bool { return false }
