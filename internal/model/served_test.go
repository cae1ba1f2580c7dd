package model_test

import (
	"context"
	"math"
	"testing"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/stats"
)

// TestCTRScoresWhatServes: CTR is the score the engine serves, bit for
// bit, whatever tables the model holds, fp32 or int8, with or without
// a dense bottom MLP. Anything that scores a model offline through CTR
// (the online updater's quality gate, train.Teacher, rank.Pipeline)
// therefore judges the program that serves, quantization included.
func TestCTRScoresWhatServes(t *testing.T) {
	for _, s := range []string{"rmc1-int8", "rmc3-int8", "ncf-int8", "rmc2-int8", "rmc3"} {
		t.Run(s, func(t *testing.T) {
			spec, err := model.ParseSingleSpec(s, 100)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Build(stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			e, err := engine.NewEngine(engine.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.Register("m", m, engine.ModelOptions{}); err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(2)
			for i := 0; i < 4; i++ {
				req := model.NewRandomRequest(m.Config, 16, rng)
				served, err := e.Rank(context.Background(), "m", req)
				if err != nil {
					t.Fatal(err)
				}
				ctr := m.CTR(req)
				for j := range served {
					if math.Float32bits(ctr[j]) != math.Float32bits(served[j]) {
						t.Fatalf("request %d: CTR[%d] = %g, served %g", i, j, ctr[j], served[j])
					}
				}
			}
		})
	}
}
