package server

import (
	"math"
	"testing"
)

// simBits is one simulation result down to the float64 bits.
type simBits struct {
	p50, p99, throughput  uint64
	completed, violations int
}

func bitsOf(r Result) simBits {
	return simBits{
		p50:        math.Float64bits(r.Latencies.Percentile(50)),
		p99:        math.Float64bits(r.Latencies.Percentile(99)),
		throughput: math.Float64bits(r.ThroughputQPS),
		completed:  r.Completed,
		violations: r.SLAViolations,
	}
}

// TestSimulateGolden pins one fixed-seed run of each entry point to the
// bits recorded when both had their own worker-pool loop. The
// *Deterministic tests compare a run with itself; this compares it with
// the stored value, so a change to the RNG split order, the arrival
// draws, the service-time arithmetic or the earliest-free-worker pick
// fails here even when it moves every run the same way.
func TestSimulateGolden(t *testing.T) {
	// Loaded enough that requests queue (four workers at three quarters
	// utilisation) and an SLA tight enough that some miss it, so the
	// worker pick and the violation count are both exercised.
	sc := baseSim()
	sc.QPS, sc.SLAUS = 30_000, 150
	bc := batcherConfig()
	bc.SLAUS = 5_000
	for _, tc := range []struct {
		name string
		got  simBits
		want simBits
	}{
		{"Simulate", bitsOf(Simulate(sc)), goldenSimulate},
		{"SimulateBatched", bitsOf(SimulateBatched(bc)), goldenSimulateBatched},
	} {
		if tc.got != tc.want {
			t.Errorf("%s drifted:\n got %#v\nwant %#v", tc.name, tc.got, tc.want)
		}
	}
}

// Recorded at commit e54a6ed (Simulate: p50 106.113 µs, p99 257.078 µs,
// 30 036 req/s; SimulateBatched: p50 4 103.89 µs, p99 5 470.41 µs,
// 20 042 req/s).
var (
	goldenSimulate = simBits{
		p50: 0x405a873e24200a00, p99: 0x407011413b51a736, throughput: 0x40dd551f9436572e,
		completed: 4000, violations: 699,
	}
	goldenSimulateBatched = simBits{
		p50: 0x40b007e3d8062cdc, p99: 0x40b55e693e818d40, throughput: 0x40d3929fdce64d6b,
		completed: 8000, violations: 782,
	}
)
