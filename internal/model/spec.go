package model

import (
	"fmt"
	"strconv"
	"strings"

	"recsys/internal/stats"
)

// SpecUsage and SingleSpecUsage are the -model grammar as the binaries'
// help text and the parse errors state it; DESIGN.md "Bring-up" is the
// full account.
const (
	presetUsage     = "preset is rmc1, rmc2 or rmc3 (each also -large) or ncf"
	SpecUsage       = "[name=]preset[-int8][:scale][@weight]; " + presetUsage
	SingleSpecUsage = "preset[-int8][:scale]; " + presetUsage
)

// Spec is one parsed -model value: which Table I preset to build, how
// far to shrink its tables, how to quantize it, and — for co-located
// serving — the name it registers under and its share of the executor.
type Spec struct {
	// Name is the registry name; empty when the spec carried no name=.
	Name string
	// Preset is the unscaled configuration the spec names.
	Preset Config
	// Scale divides every table's row count (Config.Scaled); 1 or less
	// leaves the preset at production size.
	Scale int
	// Weight is the executor's fair-pick weight (1 without @weight).
	Weight int
	// Int8Tables serves row-wise int8-quantized embedding tables (the
	// "-int8" suffix).
	Int8Tables bool
}

// ParseSpec parses one -model value. defaultScale applies when the
// spec has no :scale of its own.
func ParseSpec(s string, defaultScale int) (Spec, error) {
	spec := Spec{Scale: defaultScale, Weight: 1}
	rest := s
	if eq := strings.IndexByte(rest, '='); eq >= 0 {
		spec.Name, rest = rest[:eq], rest[eq+1:]
		if spec.Name == "" {
			return Spec{}, fmt.Errorf("model: empty model name in spec %q", s)
		}
	}
	var err error
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		spec.Weight, err = strconv.Atoi(rest[at+1:])
		if err != nil || spec.Weight <= 0 {
			return Spec{}, fmt.Errorf("model: bad weight in spec %q", s)
		}
		rest = rest[:at]
	}
	if colon := strings.IndexByte(rest, ':'); colon >= 0 {
		spec.Scale, err = strconv.Atoi(rest[colon+1:])
		if err != nil || spec.Scale <= 0 {
			return Spec{}, fmt.Errorf("model: bad scale in spec %q", s)
		}
		rest = rest[:colon]
	}
	var base string
	base, spec.Int8Tables = strings.CutSuffix(strings.ToLower(rest), "-int8")
	switch base {
	case "rmc1":
		spec.Preset = RMC1Small()
	case "rmc1-large":
		spec.Preset = RMC1Large()
	case "rmc2":
		spec.Preset = RMC2Small()
	case "rmc2-large":
		spec.Preset = RMC2Large()
	case "rmc3":
		spec.Preset = RMC3Small()
	case "rmc3-large":
		spec.Preset = RMC3Large()
	case "ncf":
		spec.Preset = MLPerfNCF()
	default:
		return Spec{}, fmt.Errorf("model: unknown preset %q in spec %q (want %s)", rest, s, SpecUsage)
	}
	return spec, nil
}

// ParseSingleSpec is ParseSpec for the places that run exactly one
// model (embshard, loadgen, recbench): a registry name or a dispatch
// weight has nothing to apply to there, so it is refused rather than
// dropped.
func ParseSingleSpec(s string, defaultScale int) (Spec, error) {
	if strings.ContainsAny(s, "=@") {
		return Spec{}, fmt.Errorf("model: spec %q: name= and @weight belong to serve's repeated -model; a single model is %s", s, SingleSpecUsage)
	}
	return ParseSpec(s, defaultScale)
}

// Config returns the preset at the spec's scale.
func (s Spec) Config() Config {
	if s.Scale > 1 {
		return s.Preset.Scaled(s.Scale)
	}
	return s.Preset
}

// Build materializes the spec with weights drawn from rng, quantized
// as its suffix says. An Int8Tables spec is built for serving: its
// tables hold int8 rows, drawn without an fp32 table, and
// bit-identical to Build followed by QuantizeTables.
func (s Spec) Build(rng *stats.RNG) (*Model, error) {
	return build(s.Config(), rng, s.Int8Tables)
}

// BuildSpecs is the weight-stream rule every process of a deployment
// follows: spec i is built from the i-th Split of stats.NewRNG(seed).
// A serving node, the embshard processes behind it and a benchmark's
// reference twin therefore hold bit-identical weights whenever they
// agree on the specs and the seed.
func BuildSpecs(specs []Spec, seed uint64) ([]*Model, error) {
	rng := stats.NewRNG(seed)
	models := make([]*Model, len(specs))
	for i, s := range specs {
		m, err := s.Build(rng.Split())
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}
