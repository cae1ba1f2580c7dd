package trace

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"recsys/internal/stats"
)

// TestArrivalTimesGolden pins the first 64 arrival times of the
// homogeneous ("poisson") and one inhomogeneous ("flash") process to
// the exact float64 bits recorded in testdata/arrivals.golden: same
// ExpFloat64 draws, same division, same accumulation order. The
// simulator's latencies and the scenario harness's pacing both hang off
// these numbers. Regenerate with UPDATE_GOLDEN=1 only for an intended
// change, and review the diff.
func TestArrivalTimesGolden(t *testing.T) {
	var b strings.Builder
	for _, kind := range []string{"poisson", "flash"} {
		// The flash step lands at 20 ms, inside the 64 arrivals at
		// 1000 → 4000 QPS, so both rates are on record.
		g, err := NewArrivalSource(kind, 1000, 4, 20*time.Millisecond, 3, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range g.Take(64) {
			if a.Batch != 3 {
				t.Fatalf("%s arrival %d: batch %d, want 3", kind, i, a.Batch)
			}
			fmt.Fprintf(&b, "%s %2d %016x %.6f\n", kind, i, math.Float64bits(a.TimeUS), a.TimeUS)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "arrivals.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("arrival times drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
