// Package fleet models data-center-wide AI inference cycle accounting —
// the aggregations behind Figure 1 (recommendation models consume 79%
// of AI inference cycles, RMC1-3 alone 65%) and Figure 4 (cycle share
// by operator across the fleet).
//
// A Fleet is a mix of services, each with a share of total inference
// cycles and an internal operator breakdown. For the RMC classes the
// breakdown is derived from the performance model; for the CNN/RNN and
// miscellaneous services it is set from the canonical structure of
// those workloads. Every service reserves a fraction of cycles for
// framework and feature-preprocessing work, which lands in the "Other"
// operator bucket — the large Other bar of Figure 4.
package fleet

import (
	"fmt"
	"math"

	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/perf"
)

// Service is one inference workload family in the data center.
type Service struct {
	Name string
	// Recommendation marks DNN-based recommendation services.
	Recommendation bool
	// CycleShare is the service's fraction of fleet AI inference cycles.
	CycleShare float64
	// OpShares is the within-service cycle breakdown by operator kind;
	// it must sum to 1.
	OpShares map[nn.Kind]float64
}

// Fleet is a data-center service mix.
type Fleet struct {
	Services []Service
}

// Validate checks that cycle shares sum to 1 and per-service operator
// shares each sum to 1 (within tolerance).
func (f Fleet) Validate() error {
	total := 0.0
	for _, s := range f.Services {
		if s.CycleShare < 0 {
			return fmt.Errorf("fleet: %s has negative cycle share", s.Name)
		}
		total += s.CycleShare
		ops := 0.0
		for _, v := range s.OpShares {
			if v < 0 {
				return fmt.Errorf("fleet: %s has negative op share", s.Name)
			}
			ops += v
		}
		if math.Abs(ops-1) > 1e-6 {
			return fmt.Errorf("fleet: %s op shares sum to %.4f, want 1", s.Name, ops)
		}
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("fleet: cycle shares sum to %.4f, want 1", total)
	}
	return nil
}

// CyclesByService returns each service's share of fleet cycles
// (Figure 1).
func (f Fleet) CyclesByService() map[string]float64 {
	out := make(map[string]float64, len(f.Services))
	for _, s := range f.Services {
		out[s.Name] += s.CycleShare
	}
	return out
}

// RecommendationShare returns the fraction of fleet cycles spent in
// recommendation services (the paper: ≥ 79%).
func (f Fleet) RecommendationShare() float64 {
	total := 0.0
	for _, s := range f.Services {
		if s.Recommendation {
			total += s.CycleShare
		}
	}
	return total
}

// TopRMCShare returns the combined share of the three studied classes
// (the paper: 65%).
func (f Fleet) TopRMCShare() float64 {
	total := 0.0
	for _, s := range f.Services {
		switch s.Name {
		case "RMC1", "RMC2", "RMC3":
			total += s.CycleShare
		}
	}
	return total
}

// CyclesByKindSplit returns the Figure 4 bars: operator shares split
// into recommendation vs non-recommendation services.
func (f Fleet) CyclesByKindSplit() (rec, nonRec map[nn.Kind]float64) {
	rec = make(map[nn.Kind]float64)
	nonRec = make(map[nn.Kind]float64)
	for _, s := range f.Services {
		dst := nonRec
		if s.Recommendation {
			dst = rec
		}
		for k, v := range s.OpShares {
			dst[k] += s.CycleShare * v
		}
	}
	return rec, nonRec
}

// frameworkFrac is the per-service fraction of cycles outside DNN
// operators (feature preprocessing, serialization, framework dispatch).
const frameworkFrac = 0.35

// derivedOpShares converts a performance-model estimate into a
// service-level operator breakdown with the framework share folded in.
func derivedOpShares(cfg model.Config, m arch.Machine, batch int) map[nn.Kind]float64 {
	mt := perf.Estimate(cfg, perf.NewContext(m, batch))
	out := make(map[nn.Kind]float64)
	for k, us := range mt.ByKind() {
		out[k] = (us / mt.TotalUS) * (1 - frameworkFrac)
	}
	out[nn.KindOther] += frameworkFrac
	return out
}

// DefaultFleet returns a service mix calibrated to the paper's
// fleet-level observations: RMC1-3 consume 65% of cycles, all
// recommendation ≥ 79%, fleet-wide SLS ≈ 15% (4× CNN conv cycles and
// ~20× RNN cycles), and FC is the largest single operator (Figure 4).
// The RMC operator breakdowns come from the performance model on
// Broadwell at batch 16 (the common production batching regime).
func DefaultFleet() Fleet {
	bdw := arch.Broadwell()
	f := Fleet{Services: []Service{
		{
			Name: "RMC1", Recommendation: true, CycleShare: 0.17,
			OpShares: derivedOpShares(model.RMC1Small(), bdw, 16),
		},
		{
			Name: "RMC2", Recommendation: true, CycleShare: 0.10,
			OpShares: derivedOpShares(model.RMC2Small(), bdw, 16),
		},
		{
			Name: "RMC3", Recommendation: true, CycleShare: 0.38,
			OpShares: derivedOpShares(model.RMC3Small(), bdw, 16),
		},
		{
			// The long tail of other recommendation models.
			Name: "OtherRM", Recommendation: true, CycleShare: 0.14,
			OpShares: map[nn.Kind]float64{
				nn.KindFC: 0.33, nn.KindSLS: 0.20, nn.KindConcat: 0.06,
				nn.KindBatchMM: 0.03, nn.KindActivation: 0.03, nn.KindOther: 0.35,
			},
		},
		{
			Name: "CNN", Recommendation: false, CycleShare: 0.05,
			OpShares: map[nn.Kind]float64{
				nn.KindConv: 0.70, nn.KindFC: 0.10, nn.KindActivation: 0.05, nn.KindOther: 0.15,
			},
		},
		{
			Name: "RNN", Recommendation: false, CycleShare: 0.015,
			OpShares: map[nn.Kind]float64{
				nn.KindRecurrent: 0.60, nn.KindFC: 0.15, nn.KindActivation: 0.05, nn.KindOther: 0.20,
			},
		},
		{
			// Miscellaneous non-recommendation inference.
			Name: "OtherNonRec", Recommendation: false, CycleShare: 0.145,
			OpShares: map[nn.Kind]float64{
				nn.KindFC: 0.25, nn.KindBatchMM: 0.10, nn.KindOther: 0.65,
			},
		},
	}}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}
