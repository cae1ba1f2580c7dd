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

// TestSimulateGolden pins one fixed-seed run of each entry point to
// recorded bits. The *Deterministic tests compare a run with itself;
// this compares it with the stored value, so a change to the RNG split order, the arrival
// draws, the service-time arithmetic or the earliest-free-worker pick
// fails here even when it moves every run the same way.
func TestSimulateGolden(t *testing.T) {
	// Loaded enough that requests queue (four workers at three quarters
	// utilisation) and an SLA tight enough that some miss it, so the
	// worker pick and the violation count are both exercised.
	sc := baseSim()
	sc.QPS, sc.SLAUS = 30_000, 150
	bc := batcherConfig()
	bc.SLAUS = 3_000
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

// Simulate recorded at commit e54a6ed (p50 106.113 µs, p99 257.078 µs,
// 30 036 req/s) and untouched since: MaxBatch 1 never holds, so the cut
// rule cannot move it. SimulateBatched recorded when the cut rule became
// batch.Policy.Hold (p50 2 504.04 µs, p99 4 200.17 µs, 20 042 req/s);
// under the arrival-time-only rule before it the same run read p50
// 4 103.89 µs, p99 5 470.41 µs, and its SLA was 5 ms, which nothing
// misses now.
var (
	goldenSimulate = simBits{
		p50: 0x405a873e24200a00, p99: 0x407011413b51a736, throughput: 0x40dd551f9436572e,
		completed: 4000, violations: 699,
	}
	goldenSimulateBatched = simBits{
		p50: 0x40a39016d8553fc0, p99: 0x40b0682b19b989c8, throughput: 0x40d3927d3f73b43c,
		completed: 8000, violations: 2186,
	}
)
