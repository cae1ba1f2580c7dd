package main

import (
	"math"
	"testing"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/stack"
	"recsys/internal/stats"
)

// TestWeightStream pins the rule a sharded deployment and the system
// benchmark's reference twin both stand on: for one spec and one seed,
// the rows an embshard serves, the rows of the model a serving node
// registers, and the rows of model.Build over the seed's first split
// (bench/workload.go buildTwin, spelled out) are the same bits.
func TestWeightStream(t *testing.T) {
	const seed, defaultScale = 7, 100
	for _, in := range []string{"rmc1:1000", "rmc2-int8:1000"} {
		shardStores, _, err := buildStores(in, defaultScale, seed)
		if err != nil {
			t.Fatal(err)
		}

		spec, err := model.ParseSpec(in, defaultScale)
		if err != nil {
			t.Fatal(err)
		}
		st, err := stack.Start(stack.Config{Models: []model.Spec{spec}, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		served, err := st.Engine.Model(engine.DefaultModelName)
		if err != nil {
			t.Fatal(err)
		}

		twin, err := model.Build(spec.Preset.Scaled(1000), stats.NewRNG(seed).Split())
		if err != nil {
			t.Fatal(err)
		}
		if spec.Int8Tables {
			twin.QuantizeTables()
		}

		if len(shardStores) != len(served.SLS) || len(twin.SLS) != len(served.SLS) {
			t.Fatalf("%s: %d shard tables, %d served, %d twin", in, len(shardStores), len(served.SLS), len(twin.SLS))
		}
		for i := range served.SLS {
			sameRows(t, in, i, "embshard", shardStores[i], served.SLS[i].LocalStore())
			sameRows(t, in, i, "twin", twin.SLS[i].LocalStore(), served.SLS[i].LocalStore())
		}
	}
}

// sameRows fails unless got and want hold bit-identical rows.
func sameRows(t *testing.T, spec string, table int, who string, got, want nn.RowStore) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s table %d: %s is %d×%d, serve %d×%d", spec, table, who, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	a, b := make([]float32, got.Cols()), make([]float32, want.Cols())
	for id := 0; id < want.Rows(); id++ {
		got.ReadRow(int64(id), a)
		want.ReadRow(int64(id), b)
		for c := range a {
			if math.Float32bits(a[c]) != math.Float32bits(b[c]) {
				t.Fatalf("%s table %d row %d col %d: %s has %v, serve %v", spec, table, id, c, who, a[c], b[c])
			}
		}
	}
}
