package engine

import "math"

// ctrEqual compares served scores against a reference computed through
// model.CTR (or ForwardEx), bit for bit: CTR runs the
// forward pass the engine serves, and row-partitioned batching,
// splitting and intra-op parallelism leave every row's arithmetic
// unchanged, on every kernel tier.
func ctrEqual(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
