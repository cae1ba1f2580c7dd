package model

import (
	"strings"
	"testing"

	"recsys/internal/stats"
)

// TestParseSpec is the -model grammar: every form serve, embshard,
// loadgen and recbench accept, and every class of refusal.
func TestParseSpec(t *testing.T) {
	const defaultScale = 1000
	cases := []struct {
		in     string
		name   string
		class  Class
		preset string // Config.Name of the unscaled preset
		scale  int
		weight int
		tables bool
		mlps   bool
		errHas string // non-empty: ParseSpec must fail mentioning this
	}{
		{in: "rmc1", class: RMC1, preset: "RMC1-small", scale: defaultScale, weight: 1},
		{in: "rmc2", class: RMC2, preset: "RMC2-small", scale: defaultScale, weight: 1},
		{in: "rmc3", class: RMC3, preset: "RMC3-small", scale: defaultScale, weight: 1},
		{in: "ncf", class: NCF, preset: "MLPerf-NCF", scale: defaultScale, weight: 1},
		{in: "rmc1-large", class: RMC1, preset: "RMC1-large", scale: defaultScale, weight: 1},
		{in: "RMC2-LARGE", class: RMC2, preset: "RMC2-large", scale: defaultScale, weight: 1},
		{in: "rmc3-large", class: RMC3, preset: "RMC3-large", scale: defaultScale, weight: 1},
		{in: "rmc2-int8", class: RMC2, preset: "RMC2-small", scale: defaultScale, weight: 1, tables: true},
		{in: "rmc2-int8:50", class: RMC2, preset: "RMC2-small", scale: 50, weight: 1, tables: true},
		{in: "rmc1-int8mlp", class: RMC1, preset: "RMC1-small", scale: defaultScale, weight: 1, tables: true, mlps: true},
		{in: "rmc2-large-int8", class: RMC2, preset: "RMC2-large", scale: defaultScale, weight: 1, tables: true},
		{in: "rmc1:1", class: RMC1, preset: "RMC1-small", scale: 1, weight: 1},
		{in: "filter=rmc1:500@2", name: "filter", class: RMC1, preset: "RMC1-small", scale: 500, weight: 2},
		{in: "ranker=rmc3:500", name: "ranker", class: RMC3, preset: "RMC3-small", scale: 500, weight: 1},
		{in: "q=rmc2-int8:500", name: "q", class: RMC2, preset: "RMC2-small", scale: 500, weight: 1, tables: true},
		{in: "qm=rmc1-int8mlp:500", name: "qm", class: RMC1, preset: "RMC1-small", scale: 500, weight: 1, tables: true, mlps: true},
		{in: "rmc1@3", class: RMC1, preset: "RMC1-small", scale: defaultScale, weight: 3},

		{in: "=rmc1", errHas: "empty model name"},
		{in: "rmc1:-5", errHas: "bad scale"},
		{in: "rmc1:0", errHas: "bad scale"},
		{in: "rmc1:x", errHas: "bad scale"},
		{in: "rmc1@0", errHas: "bad weight"},
		{in: "rmc1@two", errHas: "bad weight"},
		{in: "nope", errHas: "unknown preset"},
		{in: "", errHas: "unknown preset"},
		{in: "rmc1-int8mlpx", errHas: "unknown preset"},
		{in: "rmc9", errHas: "unknown preset"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in, defaultScale)
		if c.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), c.errHas) {
				t.Errorf("ParseSpec(%q): err = %v, want one mentioning %q", c.in, err, c.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got.Name != c.name || got.Preset.Class != c.class || got.Preset.Name != c.preset ||
			got.Scale != c.scale || got.Weight != c.weight || got.Int8Tables != c.tables || got.Int8MLPs != c.mlps {
			t.Errorf("ParseSpec(%q) = %+v, want name %q preset %q scale %d weight %d int8 %v/%v",
				c.in, got, c.name, c.preset, c.scale, c.weight, c.tables, c.mlps)
		}
	}
}

// TestParseSingleSpec: the single-model places take the same grammar
// less the two parts that only co-location gives a meaning to.
func TestParseSingleSpec(t *testing.T) {
	got, err := ParseSingleSpec("rmc2-int8:1000", 100)
	if err != nil || got.Scale != 1000 || !got.Int8Tables || got.Name != "" {
		t.Errorf("ParseSingleSpec(rmc2-int8:1000) = %+v, %v", got, err)
	}
	for _, in := range []string{"a=rmc1", "rmc1@2", "a=rmc1:10@2"} {
		if _, err := ParseSingleSpec(in, 100); err == nil || !strings.Contains(err.Error(), "single model") {
			t.Errorf("ParseSingleSpec(%q): err = %v, want the single-model refusal", in, err)
		}
	}
}

// TestSpecBuild: Config applies the scale, Build the quantization the
// suffix names, and BuildSpecs hands spec i the i-th split of the seed.
func TestSpecBuild(t *testing.T) {
	var specs []Spec
	for _, in := range []string{"rmc1:1000", "rmc1-int8:1000", "rmc1-int8mlp:1000"} {
		s, err := ParseSpec(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	if got, want := specs[0].Config().Tables[0].Rows, RMC1Small().Tables[0].Rows/1000; got != want {
		t.Errorf("Config() rows = %d, want %d", got, want)
	}
	if unscaled := (Spec{Preset: RMC1Small(), Scale: 1}).Config(); unscaled.Name != "RMC1-small" {
		t.Errorf("scale 1 renamed the preset to %q", unscaled.Name)
	}
	models, err := BuildSpecs(specs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		if m.Quantized() != specs[i].Int8Tables || m.Int8MLPs() != specs[i].Int8MLPs {
			t.Errorf("spec %d: tables=%v mlps=%v, want %v/%v", i, m.Quantized(), m.Int8MLPs(), specs[i].Int8Tables, specs[i].Int8MLPs)
		}
	}
	rng := stats.NewRNG(7)
	rng.Split()
	second, err := specs[1].Build(rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	a, b := models[1].SLS[0].Table.W.Data(), second.SLS[0].Table.W.Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BuildSpecs spec 1 differs from the second split at weight %d", i)
		}
	}
}
