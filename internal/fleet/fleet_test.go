package fleet

import (
	"math"
	"testing"

	"recsys/internal/nn"
)

func TestDefaultFleetValidates(t *testing.T) {
	f := DefaultFleet()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]Fleet{
		"shares not 1": {Services: []Service{{
			Name: "a", CycleShare: 0.5,
			OpShares: map[nn.Kind]float64{nn.KindFC: 1},
		}}},
		"op shares not 1": {Services: []Service{{
			Name: "a", CycleShare: 1,
			OpShares: map[nn.Kind]float64{nn.KindFC: 0.5},
		}}},
		"negative share": {Services: []Service{
			{Name: "a", CycleShare: -0.5, OpShares: map[nn.Kind]float64{nn.KindFC: 1}},
			{Name: "b", CycleShare: 1.5, OpShares: map[nn.Kind]float64{nn.KindFC: 1}},
		}},
		"negative op": {Services: []Service{{
			Name: "a", CycleShare: 1,
			OpShares: map[nn.Kind]float64{nn.KindFC: 1.5, nn.KindSLS: -0.5},
		}}},
	}
	for name, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestFigure1Shares reproduces Figure 1: RMC1-3 consume 65% of AI
// inference cycles; recommendation models overall consume ≥ 79%.
func TestFigure1Shares(t *testing.T) {
	f := DefaultFleet()
	if s := f.TopRMCShare(); math.Abs(s-0.65) > 0.01 {
		t.Errorf("RMC1-3 share = %.3f, paper reports 0.65", s)
	}
	if s := f.RecommendationShare(); s < 0.79 {
		t.Errorf("recommendation share = %.3f, paper reports ≥ 0.79", s)
	}
	by := f.CyclesByService()
	if len(by) != 7 {
		t.Errorf("services = %d, want 7", len(by))
	}
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		if by[name] <= 0 {
			t.Errorf("%s missing from fleet", name)
		}
	}
}

// TestFigure4OperatorShares reproduces Figure 4: FC is the largest
// operator; FC+SLS+Concat exceed 45% of recommendation cycles; SLS
// alone is ~15% of all AI cycles — about 4× the CNN convolution share
// and ≥ 10× the recurrent share.
func TestFigure4OperatorShares(t *testing.T) {
	by, nonRec := DefaultFleet().CyclesByKindSplit()
	for k, v := range nonRec {
		by[k] += v
	}

	sls := by[nn.KindSLS]
	if sls < 0.10 || sls > 0.20 {
		t.Errorf("fleet SLS share = %.3f, paper reports ~0.15", sls)
	}
	conv := by[nn.KindConv]
	if r := sls / conv; r < 2.5 || r > 8 {
		t.Errorf("SLS/Conv cycle ratio = %.1f, paper reports ~4×", r)
	}
	rec := by[nn.KindRecurrent]
	if r := sls / rec; r < 10 {
		t.Errorf("SLS/Recurrent cycle ratio = %.1f, paper reports ~20×", r)
	}
	// FC is the largest named operator.
	for k, v := range by {
		if k != nn.KindFC && k != nn.KindOther && v > by[nn.KindFC] {
			t.Errorf("operator %v share %.3f exceeds FC %.3f", k, v, by[nn.KindFC])
		}
	}
	// Shares are a partition of all cycles.
	total := 0.0
	for _, v := range by {
		total += v
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("operator shares sum to %.4f", total)
	}
}

// TestFigure4RecommendationSplit: FC+SLS+Concat dominate recommendation
// cycles, while Conv/Recurrent cycles come from non-recommendation
// services.
func TestFigure4RecommendationSplit(t *testing.T) {
	rec, nonRec := DefaultFleet().CyclesByKindSplit()
	core := rec[nn.KindFC] + rec[nn.KindSLS] + rec[nn.KindConcat]
	recTotal := 0.0
	for _, v := range rec {
		recTotal += v
	}
	if core/recTotal < 0.45 {
		t.Errorf("FC+SLS+Concat = %.2f of recommendation cycles, paper reports > 0.45", core/recTotal)
	}
	if rec[nn.KindConv] > 1e-9 {
		t.Error("recommendation services should have no Conv cycles")
	}
	if nonRec[nn.KindSLS] > 1e-9 {
		t.Error("non-recommendation services should have no SLS cycles")
	}
	if nonRec[nn.KindConv] <= 0 || nonRec[nn.KindRecurrent] <= 0 {
		t.Error("non-recommendation split missing CNN/RNN cycles")
	}
}
