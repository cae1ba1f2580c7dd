package trace

import (
	"fmt"
	"math"
	"strings"
	"time"

	"recsys/internal/stats"
)

// Time-varying arrival processes. A constant rate models steady
// offered load; the SLA experiments need the opposite — load that
// *shifts* — because an adaptive scheduler only proves itself when the
// operating point it tuned for stops being the operating point.
// LoadGenerator (loadgen.go) draws from an inhomogeneous Poisson
// process via the piecewise-exponential approximation: each
// inter-arrival gap is Exp(1)/rate(now), i.e. the rate is held
// constant across one gap. For rates that change slowly relative to a
// gap (every profile here) this is indistinguishable from exact
// thinning and needs no rejection loop.

// RateFunc returns the instantaneous offered load, in queries per
// second, at absolute time t (microseconds since the run started).
type RateFunc func(tUS float64) float64

// ConstantRate is the homogeneous process: rate(t) = qps.
func ConstantRate(qps float64) RateFunc {
	return func(float64) float64 { return qps }
}

// FlashCrowd steps the rate from qps to mult×qps at time `at` and
// holds it there — the "traffic spike lands and stays" profile the
// QPS-at-SLA experiment uses.
func FlashCrowd(qps, mult float64, at time.Duration) RateFunc {
	atUS := float64(at.Microseconds())
	return func(tUS float64) float64 {
		if tUS >= atUS {
			return qps * mult
		}
		return qps
	}
}

// BurstyRate is a square wave with the given period: the first half of
// every period offers qps, the second half mult×qps.
func BurstyRate(qps, mult float64, period time.Duration) RateFunc {
	pUS := float64(period.Microseconds())
	return func(tUS float64) float64 {
		if math.Mod(tUS, pUS) >= pUS/2 {
			return qps * mult
		}
		return qps
	}
}

// DiurnalRate is a raised sinusoid with the given period, oscillating
// between qps (trough) and mult×qps (peak) — the compressed analogue
// of the paper's observation that production recommendation load
// swings diurnally.
func DiurnalRate(qps, mult float64, period time.Duration) RateFunc {
	pUS := float64(period.Microseconds())
	amp := qps * (mult - 1) / 2
	mid := qps + amp
	return func(tUS float64) float64 {
		return mid - amp*math.Cos(2*math.Pi*tUS/pUS)
	}
}

// NewArrivalSource builds the named arrival process:
//
//	"poisson"  steady qps (mult and period unused)
//	"flash"    qps stepping to mult×qps at time period (and holding)
//	"bursty"   square wave with the given period between qps and mult×qps
//	"diurnal"  sinusoid with the given period between qps and mult×qps
//
// It is the single point cmd/loadgen's -arrival flag maps through.
func NewArrivalSource(kind string, qps, mult float64, period time.Duration, batch int, rng *stats.RNG) (*LoadGenerator, error) {
	if qps <= 0 {
		return nil, fmt.Errorf("trace: arrival qps must be positive, got %g", qps)
	}
	if kind != "poisson" {
		if mult < 1 {
			return nil, fmt.Errorf("trace: arrival peak multiplier must be >= 1, got %g", mult)
		}
		if period <= 0 {
			return nil, fmt.Errorf("trace: arrival period must be positive, got %v", period)
		}
	}
	var rate RateFunc
	switch strings.ToLower(kind) {
	case "poisson":
		rate = ConstantRate(qps)
	case "flash":
		rate = FlashCrowd(qps, mult, period)
	case "bursty":
		rate = BurstyRate(qps, mult, period)
	case "diurnal":
		rate = DiurnalRate(qps, mult, period)
	default:
		return nil, fmt.Errorf("trace: unknown arrival process %q (want poisson, flash, bursty, or diurnal)", kind)
	}
	return NewVariableLoadGenerator(rate, batch, rng), nil
}
