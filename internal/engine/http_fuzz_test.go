package engine

import (
	"testing"

	"recsys/internal/model"
)

// FuzzRankRequestDecode is a differential fuzzer: arbitrary bytes go
// through RankDecoder plus the admission validator (what POST /rank
// does with a body) and through the encoding/json path it replaced
// (oracleDecode), on a dense model and on a sparse-only one whose batch
// is inferred from the first table. checkAgainstOracle holds the
// contract: no panic; whatever the decoder accepts, encoding/json
// accepts with a bitwise-equal model.Request; whatever only
// encoding/json accepts falls in a divergence class DESIGN.md
// documents.
func FuzzRankRequestDecode(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed.body))
	}
	for _, tok := range float32TokenSeeds() {
		f.Add([]byte(`{"dense": [[` + tok + `, 0]], "sparse_ids": [[0, 0]]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d RankDecoder
		for _, cfg := range []model.Config{fuzzDense, fuzzSparse} {
			checkAgainstOracle(t, &d, cfg, body)
		}
	})
}
