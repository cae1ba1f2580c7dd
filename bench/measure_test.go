package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it: 1000 samples support p99 (ten beyond), 999 do not.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// The best tenth of twenty slices is the second best one.
func TestBestTenthOfSlices(t *testing.T) {
	v := make([]float64, 20)
	for i := range v {
		v[i] = float64((i*7)%20 + 1) // 1..20, shuffled
	}
	if got := lowestTenth(v); got != 2 {
		t.Errorf("lowestTenth(1..20) = %g, want 2", got)
	}
	if got := highestTenth(v); got != 19 {
		t.Errorf("highestTenth(1..20) = %g, want 19", got)
	}
	if lowestTenth(nil) != 0 || highestTenth(nil) != 0 {
		t.Error("the best tenth of no slices must be 0")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q3 = quartiles([]float64{20, 40, 10}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %g, %g, want 10, 40", q1, q3)
	}
}

// Slices hold 3, 0 and 2 events of weight 4; an event at the last bound
// is after the phase.
func TestSliceCounts(t *testing.T) {
	ms := time.Millisecond
	bounds := []time.Duration{0, 1000 * ms, 2001 * ms, 3000 * ms}
	ends := []time.Duration{100 * ms, 500 * ms, 999 * ms, 2001 * ms, 2500 * ms, 3000 * ms}
	got := sliceCounts(ends, 4, bounds)
	if len(got) != 3 || got[0] != 12 || got[1] != 0 || got[2] != 8 {
		t.Errorf("sliceCounts = %v, want [12 0 8]", got)
	}
}

const scrapeBefore = `# HELP recsys_embcache_hits_total Embedding cache row hits.
# TYPE recsys_embcache_hits_total counter
recsys_embcache_hits_total{model="default",table="0"} 100
recsys_embcache_hits_total{model="default",table="1"} 50
recsys_requests_total{model="default"} 10
recsys_shard_latency_seconds_bucket{model="default",shard="a",le="0.001"} 0
recsys_shard_latency_seconds_bucket{model="default",shard="a",le="0.002"} 10
recsys_shard_latency_seconds_bucket{model="default",shard="a",le="+Inf"} 10
recsys_shard_latency_seconds_count{model="default",shard="a"} 10
`

const scrapeAfter = `recsys_embcache_hits_total{model="default",table="0"} 400
recsys_embcache_hits_total{model="default",table="1"} 150
recsys_requests_total{model="default"} 30
recsys_requests_totally_other 7
recsys_shard_latency_seconds_bucket{model="default",shard="a",le="0.001"} 40
recsys_shard_latency_seconds_bucket{model="default",shard="a",le="0.002"} 50
recsys_shard_latency_seconds_bucket{model="default",shard="a",le="+Inf"} 50
recsys_shard_latency_seconds_bucket{model="default",shard="b",le="0.001"} 40
recsys_shard_latency_seconds_bucket{model="default",shard="b",le="0.002"} 40
recsys_shard_latency_seconds_bucket{model="default",shard="b",le="+Inf"} 40
`

func TestPromDeltaSumsLabelSets(t *testing.T) {
	before, after := parseProm(scrapeBefore), parseProm(scrapeAfter)
	if got := promDelta(before, after, "recsys_embcache_hits_total"); got != 400 {
		t.Errorf("hits delta = %g, want 400 (both tables summed)", got)
	}
	if got := promDelta(before, after, "recsys_requests_total"); got != 20 {
		t.Errorf("requests delta = %g, want 20 (a longer name must not match)", got)
	}
	if got := promDelta(before, after, "recsys_absent_total"); got != 0 {
		t.Errorf("absent family delta = %g, want 0", got)
	}
}

// Between the scrapes the two shards observed 80 calls, all under 1 ms,
// so the median interpolates to the middle of the first bucket; shard b
// is absent from the first scrape and counts from zero.
func TestHistQuantileOverDelta(t *testing.T) {
	before, after := parseProm(scrapeBefore), parseProm(scrapeAfter)
	got := histQuantile(before, after, "recsys_shard_latency_seconds", 0.5)
	if math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("median = %g s, want 0.0005", got)
	}
	if got := histQuantile(before, before, "recsys_shard_latency_seconds", 0.5); got != 0 {
		t.Errorf("quantile of an empty window = %g, want 0", got)
	}
}
