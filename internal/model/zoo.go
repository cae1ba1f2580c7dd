package model

// The zoo instantiates Table I. The paper publishes only normalized
// parameters, so the concrete numbers below are chosen to satisfy every
// constraint the text states:
//
//   - Bottom/Top FC widths follow the Table I ratios against a base
//     width of 32 (RMC1 layer 3): RMC1/RMC2 bottoms 8×-4×-1×, RMC3
//     bottom 80×-8×-4×; all tops 4×-1× ending in the CTR output, as in
//     the §VII example configuration (128-64-32 bottom, 128-32-1 top).
//   - Embedding dimension 32 (the paper: same across models, 24-40).
//   - Table counts: RMC2 has ~10× the tables of RMC1/RMC3 ("4 to 40"
//     overall; RMC2 is 8×-12× RMC1).
//   - Lookups per table: RMC1/RMC2 gather 4× more IDs than RMC3.
//   - Aggregate embedding storage is ~10⁸ / 10¹⁰ / 10⁹ bytes for
//     RMC1 / RMC2 / RMC3 ("100MB, 10GB, and 1GB", §III-B).
//   - RMC1 uses DLRM's dot interaction (its bottom output equals the
//     embedding dimension); RMC2/RMC3 concatenate.

// RMC1Small is the default lightweight filtering model.
func RMC1Small() Config {
	return Config{
		Name:        "RMC1-small",
		Class:       RMC1,
		DenseIn:     13,
		BottomMLP:   []int{256, 128, 32},
		TopMLP:      []int{128, 32, 1},
		Tables:      UniformTables(4, 60_000, 32, 80),
		Interaction: Dot,
	}
}

// RMC1Large is the larger RMC1 variant: more embedding tables and
// larger FC layers give it ~2× the latency of RMC1Small (§V).
func RMC1Large() Config {
	return Config{
		Name:        "RMC1-large",
		Class:       RMC1,
		DenseIn:     13,
		BottomMLP:   []int{512, 256, 32},
		TopMLP:      []int{128, 32, 1},
		Tables:      UniformTables(8, 120_000, 32, 80),
		Interaction: Dot,
	}
}

// RMC2Small is the default memory-intensive ranking model.
func RMC2Small() Config {
	return Config{
		Name:        "RMC2-small",
		Class:       RMC2,
		DenseIn:     13,
		BottomMLP:   []int{256, 128, 32},
		TopMLP:      []int{128, 32, 1},
		Tables:      UniformTables(32, 1_500_000, 32, 80),
		Interaction: Cat,
	}
}

// RMC2Large is the larger RMC2 variant (~12GB of tables).
func RMC2Large() Config {
	return Config{
		Name:        "RMC2-large",
		Class:       RMC2,
		DenseIn:     13,
		BottomMLP:   []int{256, 128, 32},
		TopMLP:      []int{128, 32, 1},
		Tables:      UniformTables(40, 2_500_000, 32, 96),
		Interaction: Cat,
	}
}

// RMC3Small is the default compute-intensive ranking model.
func RMC3Small() Config {
	return Config{
		Name:        "RMC3-small",
		Class:       RMC3,
		DenseIn:     512,
		BottomMLP:   []int{2560, 256, 128},
		TopMLP:      []int{128, 32, 1},
		Tables:      UniformTables(2, 4_000_000, 32, 20),
		Interaction: Cat,
	}
}

// RMC3Large is the larger RMC3 variant with more dense features.
func RMC3Large() Config {
	return Config{
		Name:        "RMC3-large",
		Class:       RMC3,
		DenseIn:     1024,
		BottomMLP:   []int{2560, 256, 128},
		TopMLP:      []int{128, 32, 1},
		Tables:      UniformTables(3, 6_000_000, 32, 20),
		Interaction: Cat,
	}
}

// MLPerfNCF approximates the MLPerf neural-collaborative-filtering
// baseline on MovieLens-20m (§VII, Figure 12): user/item embeddings for
// the GMF and MLP towers, one lookup each, no dense-feature path, and a
// small MLP head (the NeuMF-8 shape: 8 GMF factors and a 16-wide MLP
// tower). The GMF element-wise product is folded into the head. As §VII
// notes, its tables and FC layers are orders of magnitude smaller than
// the production models'.
func MLPerfNCF() Config {
	return Config{
		Name:    "MLPerf-NCF",
		Class:   NCF,
		DenseIn: 0,
		TopMLP:  []int{32, 16, 1},
		Tables: []TableSpec{
			{Rows: 138_493, Dim: 8, Lookups: 1},  // user, GMF tower
			{Rows: 26_744, Dim: 8, Lookups: 1},   // item, GMF tower
			{Rows: 138_493, Dim: 16, Lookups: 1}, // user, MLP tower
			{Rows: 26_744, Dim: 16, Lookups: 1},  // item, MLP tower
		},
		Interaction: Cat,
	}
}

// Defaults returns the small representative of each class, the
// configurations used throughout §V and §VI.
func Defaults() []Config {
	return []Config{RMC1Small(), RMC2Small(), RMC3Small()}
}
