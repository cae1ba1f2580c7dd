package model

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"recsys/internal/nn"
	"recsys/internal/stats"
	"recsys/internal/tensor"
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
	if r := diffRows(models[1].SLS[0].Quant, second.SLS[0].Quant); r >= 0 {
		t.Fatalf("BuildSpecs spec 1 differs from the second split at row %d", r)
	}
}

// diffRows returns the first row whose dequantized values differ
// between a and b, or -1 when every row is bit-identical.
func diffRows(a, b *nn.QuantizedTable) int {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0
	}
	ra, rb := make([]float32, a.Cols), make([]float32, b.Cols)
	for r := 0; r < a.Rows; r++ {
		a.Row(r, ra)
		b.Row(r, rb)
		for c := range ra {
			if math.Float32bits(ra[c]) != math.Float32bits(rb[c]) {
				return r
			}
		}
	}
	return -1
}

// TestInt8SpecHoldsRowsOnce: an -int8 or -int8mlp spec builds int8
// rows only, allocates no fp32 table on the way, and serves exactly
// what Build followed by QuantizeTables serves from the same split;
// that conversion, too, leaves no fp32 table behind.
func TestInt8SpecHoldsRowsOnce(t *testing.T) {
	for _, preset := range []string{"rmc1", "rmc2", "rmc3"} {
		for _, suffix := range []string{"-int8", "-int8mlp"} {
			spec, err := ParseSpec(preset+suffix+":100", 1)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := spec.Build(stats.NewRNG(7).Split())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(spec.Config(), stats.NewRNG(7).Split())
			if err != nil {
				t.Fatal(err)
			}
			want.QuantizeTables()
			if spec.Int8MLPs {
				want.QuantizeMLPs()
			}
			if !got.Quantized() || got.Int8MLPs() != spec.Int8MLPs {
				t.Fatalf("%s%s: Quantized=%v Int8MLPs=%v", preset, suffix, got.Quantized(), got.Int8MLPs())
			}

			var rowBytes int64
			for i, op := range got.SLS {
				if op.Table.W != nil {
					t.Errorf("%s%s table %d: fp32 rows allocated", preset, suffix, i)
				}
				if want.SLS[i].Table.W != nil {
					t.Errorf("%s%s table %d: QuantizeTables kept the fp32 rows beside the int8 ones", preset, suffix, i)
				}
				if r := diffRows(op.Quant, want.SLS[i].Quant); r >= 0 {
					t.Fatalf("%s%s table %d: row %d differs from Build+QuantizeTables", preset, suffix, i, r)
				}
				rowBytes += int64(op.Quant.Rows) * int64(op.Quant.Cols+8)
			}
			// The build allocates the int8 rows and the fp32 MLP weights
			// both builds draw, plus a tenth for size-class rounding,
			// labels and the one-row scratch; an fp32 table would add
			// 4×Cols more bytes a row (3.2× the int8 rows at Cols 32).
			budget := uint64(1.1 * float64(rowBytes+4*int64(spec.Config().MLPParams())))
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
				t.Errorf("%s%s: build allocated %d bytes, budget %d (int8 rows %d)", preset, suffix, alloc, budget, rowBytes)
			}

			rng := stats.NewRNG(11)
			ga, wa := tensor.NewArena(), tensor.NewArena()
			for i := 0; i < 20; i++ {
				req := NewRandomRequest(spec.Config(), 16, rng)
				if !tensor.Equal(got.Forward(req), want.Forward(req), 0) {
					t.Fatalf("%s%s batch %d: Forward differs from Build+QuantizeTables", preset, suffix, i)
				}
				ga.Reset()
				wa.Reset()
				if !tensor.Equal(got.ForwardEx(req, ga, 1), want.ForwardEx(req, wa, 1), 0) {
					t.Fatalf("%s%s batch %d: ForwardEx differs from Build+QuantizeTables", preset, suffix, i)
				}
			}
		}
	}
}

// TestBuildCapCountsHeldBytes: the 1 GiB build cap counts parameters as
// a build holds them, so rmc2-int8:5 (≈0.36 GiB of int8 rows, ≈1.14 GiB
// as fp32) passes where its fp32 build is refused; it counts MLP widths
// as well as tables; and a declared shape whose byte count would wrap
// 64 bits is refused, not counted as its wrapped remainder. Nothing is
// built.
func TestBuildCapCountsHeldBytes(t *testing.T) {
	cfg := RMC2Small().Scaled(5)
	if _, _, err := heldBytes(cfg, true); err != nil {
		t.Errorf("int8 rmc2:5 refused: %v", err)
	}
	if _, _, err := heldBytes(cfg, false); err == nil || !strings.Contains(err.Error(), "fp32") {
		t.Errorf("fp32 rmc2:5: err %v, want the fp32 cap refusal", err)
	}
	if _, _, err := heldBytes(RMC2Small(), true); err == nil || !strings.Contains(err.Error(), "int8") {
		t.Errorf("int8 rmc2 at full size: err %v, want the int8 cap refusal", err)
	}

	mlp := func(width int) Config {
		return Config{Name: "wide", Class: Custom, DenseIn: width, BottomMLP: []int{width}, TopMLP: []int{1}}
	}
	table := func(rows, dim int) Config {
		return Config{Name: "tall", Class: Custom, Tables: []TableSpec{{Rows: rows, Dim: dim, Lookups: 1}}, TopMLP: []int{1}}
	}
	// 1000→1000 bottom, 1000→1 top: two FCs of W and b each.
	if n, blocks, err := heldBytes(mlp(1000), false); err != nil || n != 4*(1000*1000+1000+1000+1) || blocks != 4 {
		t.Errorf("1000-wide MLP: %d bytes in %d blocks, err %v", n, blocks, err)
	}
	// A 2^12-row int8 table: codes, scales, offsets, then the top FC.
	if n, blocks, err := heldBytes(table(1<<12, 32), true); err != nil || n != (1<<12)*(32+8)+4*(32+1) || blocks != 5 {
		t.Errorf("int8 table: %d bytes in %d blocks, err %v", n, blocks, err)
	}
	// An fp32 table of exactly the cap is over it once the top FC counts.
	if _, _, err := heldBytes(table(1<<23, 32), false); err == nil {
		t.Error("a 1 GiB fp32 table plus its top FC passed the 1 GiB cap")
	}
	for name, c := range map[string]Config{
		"2^14→2^14 MLP (1 GiB of W alone)":    mlp(1 << 14),
		"rows 2^40 × dim 2^24 (wraps to 0)":   table(1<<40, 1<<24),
		"rows 2^40 × dim 2^30":                table(1<<40, 1<<30),
		"rows 2^62 × dim 1 (×4 bytes wraps)":  table(1<<62, 1),
		"rows 2^61 × dim 2^3 (2^64 elements)": table(1<<61, 8),
	} {
		for _, int8Tables := range []bool{false, true} {
			if _, _, err := heldBytes(c, int8Tables); err == nil || !strings.Contains(err.Error(), "cap") {
				t.Errorf("%s (int8 %v): err %v, want the cap refusal", name, int8Tables, err)
			}
		}
	}
}
