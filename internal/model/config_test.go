package model

import (
	"strings"
	"testing"

	"recsys/internal/nn"
)

// zoo is Table I's six production configurations plus the MLPerf-NCF
// baseline.
func zoo() []Config {
	return []Config{RMC1Small(), RMC1Large(), RMC2Small(), RMC2Large(), RMC3Small(), RMC3Large(), MLPerfNCF()}
}

// statsByKind aggregates per-operator work by category for one
// inference at the given batch size.
func statsByKind(c Config, batch int) map[nn.Kind]nn.OpStats {
	out := make(map[nn.Kind]nn.OpStats)
	for _, op := range c.Ops() {
		s := out[op.Kind()]
		s.Add(op.Stats(batch))
		out[op.Kind()] = s
	}
	return out
}

func TestZooValidates(t *testing.T) {
	for _, cfg := range zoo() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	base := RMC1Small()
	cases := map[string]func(c *Config){
		"no name":            func(c *Config) { c.Name = "" },
		"no top":             func(c *Config) { c.TopMLP = nil },
		"top not ending 1":   func(c *Config) { c.TopMLP = []int{128, 32} },
		"negative dense":     func(c *Config) { c.DenseIn = -1 },
		"dense sans bottom":  func(c *Config) { c.BottomMLP = nil },
		"bottom sans dense":  func(c *Config) { c.DenseIn = 0 },
		"no inputs":          func(c *Config) { c.DenseIn = 0; c.BottomMLP = nil; c.Tables = nil },
		"bad table":          func(c *Config) { c.Tables = []TableSpec{{Rows: 0, Dim: 32, Lookups: 1}} },
		"zero width":         func(c *Config) { c.BottomMLP = []int{128, 0, 32} },
		"dot dim mismatch":   func(c *Config) { c.Tables = UniformTables(2, 100, 64, 4) },
		"dot without tables": func(c *Config) { c.Tables = nil },
	}
	for name, mutate := range cases {
		cfg := base
		// Deep-copy slices so mutations don't leak between cases.
		cfg.BottomMLP = append([]int{}, base.BottomMLP...)
		cfg.TopMLP = append([]int{}, base.TopMLP...)
		cfg.Tables = append([]TableSpec{}, base.Tables...)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestClassAndInteractionStrings(t *testing.T) {
	if RMC1.String() != "RMC1" || RMC2.String() != "RMC2" || RMC3.String() != "RMC3" ||
		NCF.String() != "NCF" || Custom.String() != "Custom" {
		t.Error("class names wrong")
	}
	if Class(42).String() != "Class(42)" {
		t.Error("unknown class formatting wrong")
	}
	if Cat.String() != "Cat" || Dot.String() != "Dot" {
		t.Error("interaction names wrong")
	}
}

// TestTableIRatios checks the zoo against the normalized parameters of
// Table I: FC layer ratios to the base width (RMC1 bottom layer 3),
// table-count and lookup ratios across classes.
func TestTableIRatios(t *testing.T) {
	r1, r2, r3 := RMC1Small(), RMC2Small(), RMC3Small()
	base := r1.BottomMLP[len(r1.BottomMLP)-1] // RMC1 layer 3 = 1×

	// Bottom-FC: RMC1/RMC2 are 8×-4×-1×, RMC3 is 80×-8×-4×.
	checkRatios := func(name string, widths []int, want []int) {
		t.Helper()
		for i, w := range widths {
			if w != want[i]*base {
				t.Errorf("%s bottom layer %d = %d, want %d× base (%d)", name, i+1, w, want[i], want[i]*base)
			}
		}
	}
	checkRatios("RMC1", r1.BottomMLP, []int{8, 4, 1})
	checkRatios("RMC2", r2.BottomMLP, []int{8, 4, 1})
	checkRatios("RMC3", r3.BottomMLP, []int{80, 8, 4})

	// Top-FC: 4×-1× then the CTR output for all three.
	for _, cfg := range Defaults() {
		top := cfg.TopMLP
		if top[0] != 4*base || top[1] != base || top[2] != 1 {
			t.Errorf("%s top = %v, want [%d %d 1]", cfg.Name, top, 4*base, base)
		}
	}

	// RMC2 has ~8-12× the tables of RMC1; RMC3 has few.
	if r := len(r2.Tables) / len(r1.Tables); r < 8 || r > 12 {
		t.Errorf("RMC2/RMC1 table ratio = %d, want 8-12", r)
	}
	if len(r3.Tables) >= len(r1.Tables) {
		t.Errorf("RMC3 should have few tables: %d vs RMC1 %d", len(r3.Tables), len(r1.Tables))
	}

	// Lookups: RMC1/RMC2 gather 4× the IDs per table of RMC3.
	if r1.Tables[0].Lookups != 4*r3.Tables[0].Lookups {
		t.Errorf("RMC1 lookups %d, want 4× RMC3 (%d)", r1.Tables[0].Lookups, r3.Tables[0].Lookups)
	}
	if r2.Tables[0].Lookups != 4*r3.Tables[0].Lookups {
		t.Errorf("RMC2 lookups %d, want 4× RMC3 (%d)", r2.Tables[0].Lookups, r3.Tables[0].Lookups)
	}

	// Embedding dim: identical across classes, within the paper's 24-40.
	dim := r1.Tables[0].Dim
	if dim < 24 || dim > 40 {
		t.Errorf("embedding dim %d outside paper range 24-40", dim)
	}
	for _, cfg := range Defaults() {
		for _, tab := range cfg.Tables {
			if tab.Dim != dim {
				t.Errorf("%s table dim %d differs from common %d", cfg.Name, tab.Dim, dim)
			}
		}
	}

	// RMC3 has the tallest tables (largest input dimension).
	if r3.Tables[0].Rows <= r2.Tables[0].Rows || r2.Tables[0].Rows <= r1.Tables[0].Rows {
		t.Error("table heights should order RMC1 < RMC2 < RMC3")
	}
}

// TestStorageOrders checks §III-B: aggregate embedding storage is on
// the order of 10⁸ / 10¹⁰ / 10⁹ bytes for RMC1 / RMC2 / RMC3.
func TestStorageOrders(t *testing.T) {
	within := func(b int64, lo, hi float64) bool { return float64(b) >= lo && float64(b) <= hi }
	if b := RMC1Small().EmbeddingBytes(); !within(b, 1e7, 5e8) {
		t.Errorf("RMC1 storage %d, want ~10⁸", b)
	}
	if b := RMC2Small().EmbeddingBytes(); !within(b, 2e9, 3e10) {
		t.Errorf("RMC2 storage %d, want ~10¹⁰", b)
	}
	if b := RMC3Small().EmbeddingBytes(); !within(b, 5e8, 5e9) {
		t.Errorf("RMC3 storage %d, want ~10⁹", b)
	}
	// And the ordering RMC1 < RMC3 < RMC2 must hold.
	r1, r2, r3 := RMC1Small().EmbeddingBytes(), RMC2Small().EmbeddingBytes(), RMC3Small().EmbeddingBytes()
	if !(r1 < r3 && r3 < r2) {
		t.Errorf("storage ordering wrong: RMC1=%d RMC3=%d RMC2=%d", r1, r3, r2)
	}
}

func TestTopMLPIn(t *testing.T) {
	r1 := RMC1Small()
	// Dot: 5 vectors (bottom + 4 tables) → 10 pairs + 32 dense = 42.
	if got := r1.TopMLPIn(); got != 42 {
		t.Errorf("RMC1 top input = %d, want 42", got)
	}
	r2 := RMC2Small()
	// Cat: 32 + 32×32 = 1056.
	if got := r2.TopMLPIn(); got != 1056 {
		t.Errorf("RMC2 top input = %d, want 1056", got)
	}
	// Top-FC input grows with the table count (§III-B note).
	if RMC2Large().TopMLPIn() <= RMC2Small().TopMLPIn() {
		t.Error("larger RMC2 should have wider top input")
	}
}

func TestMLPParams(t *testing.T) {
	cfg := Config{
		Name: "tiny", Class: Custom,
		DenseIn:   4,
		BottomMLP: []int{8, 2},
		TopMLP:    []int{3, 1},
		Tables:    UniformTables(1, 10, 2, 1),
	}
	// bottom: 4·8+8 + 8·2+2 = 58; top input = 2+2 = 4: 4·3+3 + 3·1+1 = 19.
	if got := cfg.MLPParams(); got != 77 {
		t.Errorf("MLPParams = %d, want 77", got)
	}
}

func TestOpsSequence(t *testing.T) {
	cfg := RMC1Small()
	ops := cfg.Ops()
	counts := map[nn.Kind]int{}
	for _, op := range ops {
		counts[op.Kind()]++
	}
	if counts[nn.KindFC] != 6 { // 3 bottom + 3 top
		t.Errorf("FC ops = %d, want 6", counts[nn.KindFC])
	}
	if counts[nn.KindSLS] != 4 {
		t.Errorf("SLS ops = %d, want 4", counts[nn.KindSLS])
	}
	if counts[nn.KindConcat] != 1 || counts[nn.KindBatchMM] != 1 {
		t.Errorf("concat/interact ops = %d/%d, want 1/1", counts[nn.KindConcat], counts[nn.KindBatchMM])
	}
	if counts[nn.KindActivation] != 6 { // 3 bottom ReLU + 2 top ReLU + sigmoid
		t.Errorf("activation ops = %d, want 6", counts[nn.KindActivation])
	}
	// RMC2 (Cat) must have no BatchMM.
	if c := RMC2Small(); func() int {
		n := 0
		for _, op := range c.Ops() {
			if op.Kind() == nn.KindBatchMM {
				n++
			}
		}
		return n
	}() != 0 {
		t.Error("Cat-interaction model should have no BatchMM op")
	}
}

func TestOpsPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ops on invalid config should panic")
		}
	}()
	Config{Name: "bad"}.Ops()
}

func TestStatsByKind(t *testing.T) {
	cfg := RMC2Small()
	byKind := statsByKind(cfg, 1)
	if byKind[nn.KindSLS].FLOPs == 0 || byKind[nn.KindFC].FLOPs == 0 {
		t.Fatal("missing kinds in the per-kind stats")
	}
	total := cfg.TotalStats(1)
	var sum float64
	for _, s := range byKind {
		sum += s.FLOPs
	}
	if sum != total.FLOPs {
		t.Errorf("by-kind FLOPs %v != total %v", sum, total.FLOPs)
	}
	// Embedding reads scale with batch while FC weights are read once:
	// at batch 16 RMC2 is clearly embedding-read dominated.
	byKind16 := statsByKind(cfg, 16)
	if byKind16[nn.KindSLS].ReadBytes <= byKind16[nn.KindFC].ParamBytes {
		t.Error("RMC2 should be embedding-read dominated at batch 16")
	}
}

func TestLookupsPerSample(t *testing.T) {
	if got := RMC1Small().LookupsPerSample(); got != 4*80 {
		t.Errorf("RMC1 lookups/sample = %d, want 320", got)
	}
}

func TestScaled(t *testing.T) {
	cfg := RMC2Small()
	s := cfg.Scaled(100)
	if s.EmbeddingBytes() >= cfg.EmbeddingBytes()/50 {
		t.Error("Scaled did not shrink storage")
	}
	if !strings.Contains(s.Name, "1/100") {
		t.Errorf("scaled name = %q", s.Name)
	}
	if s.MLPParams() != cfg.MLPParams() {
		t.Error("Scaled must not change MLP shapes")
	}
	tiny := cfg.Scaled(1 << 40)
	for _, tab := range tiny.Tables {
		if tab.Rows < 16 {
			t.Error("Scaled floor of 16 rows violated")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Scaled(0) should panic")
			}
		}()
		cfg.Scaled(0)
	}()
}

// TestFigure12Gap checks the paper's §VII claim: production models have
// orders-of-magnitude larger embedding tables and more FC parameters
// than MLPerf-NCF.
func TestFigure12Gap(t *testing.T) {
	ncf := MLPerfNCF()
	// The heavyweight ranking models dwarf NCF's embedding storage by
	// orders of magnitude (Figure 12); even lightweight RMC1 exceeds it.
	if RMC2Small().EmbeddingBytes() < 100*ncf.EmbeddingBytes() {
		t.Error("RMC2 embedding storage should be ≫100× NCF")
	}
	if RMC3Small().EmbeddingBytes() < 10*ncf.EmbeddingBytes() {
		t.Error("RMC3 embedding storage should be ≫10× NCF")
	}
	if RMC1Small().EmbeddingBytes() <= ncf.EmbeddingBytes() {
		t.Error("RMC1 embedding storage should exceed NCF")
	}
	// Production models gather far more embedding rows per sample.
	for _, cfg := range Defaults() {
		if cfg.LookupsPerSample() < 10*ncf.LookupsPerSample() {
			t.Errorf("%s lookups/sample should dwarf NCF", cfg.Name)
		}
	}
	// NCF is FC-dominated: >90% of its FLOPs are in FC layers.
	byKind := statsByKind(ncf, 1)
	var total float64
	for _, s := range byKind {
		total += s.FLOPs
	}
	if frac := byKind[nn.KindFC].FLOPs / total; frac < 0.9 {
		t.Errorf("NCF FC FLOP share = %.2f, want > 0.9", frac)
	}
}

func TestFigure2Points(t *testing.T) {
	pts := Figure2Points()
	if len(pts) != 9 { // 3 RMC + NCF + 5 references
		t.Fatalf("Figure2Points = %d entries, want 9", len(pts))
	}
	byName := map[string]WorkloadPoint{}
	for _, p := range pts {
		if p.FLOPs <= 0 || p.Bytes <= 0 {
			t.Errorf("%s has non-positive coordinates", p.Name)
		}
		byName[p.Name] = p
	}
	// CNNs sit at orders of magnitude more FLOPs than the RMCs.
	if byName["ResNet50"].FLOPs < 100*byName["RMC1-small"].FLOPs {
		t.Error("ResNet50 should have ≫ RMC1 FLOPs")
	}
	// NCF is smaller than every production model on both axes.
	ncf := byName["MLPerf-NCF"]
	for _, name := range []string{"RMC1-small", "RMC2-small", "RMC3-small"} {
		if ncf.FLOPs >= byName[name].FLOPs {
			t.Errorf("NCF FLOPs should be below %s", name)
		}
	}
}
