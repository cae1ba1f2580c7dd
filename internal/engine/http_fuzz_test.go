package engine

import (
	"strings"
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
	// Compact ID lists longer than a 64-byte block, each with one
	// element the block step must refuse or take at its limit.
	long := strings.Repeat("1,7,0,3,", 12)
	for _, e := range []string{"5", "12345678", "123456789", "07", "-1", " 2", "", "1.0", "99999999", "9223372036854775808"} {
		f.Add([]byte(`{"dense":[[1,2]],"sparse_ids":[[` + long + e + `,` + long + `6]]}`))
		f.Add([]byte(`{"sparse_ids":[[` + long + e + `],[` + long[:61] + `]]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d RankDecoder
		for _, cfg := range []model.Config{fuzzDense, fuzzSparse} {
			checkAgainstOracle(t, &d, cfg, body)
		}
	})
}
