package embcache

import (
	"testing"

	"recsys/internal/stats"
	"recsys/internal/trace"
)

// TestOfflineHitCountsGolden pins the exact number of hits LRU and FIFO
// score on one fixed Zipf(1.1) trace (100k rows, 50k accesses, seed 42)
// at three capacities. The behavioural tests above check orderings
// (LFU ≥ LRU ≥ FIFO on skew); these counts check that a rewrite of the
// replacement state machine evicts the very same row on every miss.
func TestOfflineHitCountsGolden(t *testing.T) {
	ids := make([]int, 50_000)
	trace.NewZipfian(100_000, 1.1, stats.NewRNG(42)).Fill(ids)
	want := map[string][3]int{
		"LRU":  goldenLRUHits,
		"FIFO": goldenFIFOHits,
	}
	for i, capacity := range []int{100, 1_000, 10_000} {
		for name, p := range map[string]Policy{"LRU": NewLRU(capacity), "FIFO": NewFIFO(capacity)} {
			hits := 0
			for _, id := range ids {
				if p.Access(uint64(id)) {
					hits++
				}
			}
			if hits != want[name][i] {
				t.Errorf("%s capacity %d: %d hits, want %d", name, capacity, hits, want[name][i])
			}
		}
	}
}

// Recorded at commit e54a6ed, capacities 100, 1 000 and 10 000.
var (
	goldenLRUHits  = [3]int{22344, 33135, 39565}
	goldenFIFOHits = [3]int{19882, 31232, 39430}
)
