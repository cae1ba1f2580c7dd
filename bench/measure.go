package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n.
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000002
	if k < 1 {
		k = 1
	}
	return k
}

// tailLadder lists the percentiles tailPercentile chooses from.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that n
// samples support: at least ten samples lie beyond it.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowestTenth and highestTenth are what the best tenth of a phase's
// slices reached, for a metric that is better lower or better higher:
// the nearest-rank 10th percentile counted from the better end (the
// second best of twenty), or 0 when there are none.
func lowestTenth(v []float64) float64 { return percentile(sortedCopy(v), 10) }

func highestTenth(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return s[len(s)-rankOf(len(s), 10)]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is how the pipeline judges a metric's spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sliceCounts sums the weight of the events that ended in each slice
// of a phase; slice i spans bounds[i] to bounds[i+1].
func sliceCounts(ends []time.Duration, weight int, bounds []time.Duration) []float64 {
	counts := make([]float64, len(bounds)-1)
	for _, e := range ends {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > e }) - 1
		if i >= 0 && i < len(counts) {
			counts[i] += float64(weight)
		}
	}
	return counts
}

// promSamples is one parsed /metrics scrape: series (name plus label
// set, as written) → value.
type promSamples map[string]float64

func parseProm(text string) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

// family splits a series into its metric name and label set.
func family(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// sum adds up every series of one metric name, over all label sets.
func (p promSamples) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if n, _ := family(series); n == name {
			total += v
		}
	}
	return total
}

// delta is after.sum(name) − before.sum(name): what a counter family
// gained between two scrapes.
func promDelta(before, after promSamples, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histQuantile estimates quantile q (0..1) of what histogram name
// observed between two scrapes, pooling every label set and
// interpolating inside the bucket as Prometheus does. It returns 0
// when nothing was observed.
func histQuantile(before, after promSamples, name string, q float64) float64 {
	cum := map[float64]float64{}
	for series, v := range after {
		n, labels := family(series)
		if n != name+"_bucket" {
			continue
		}
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		le := labels[i+4:]
		bound, err := strconv.ParseFloat(le[:strings.IndexByte(le, '"')], 64)
		if err != nil {
			continue
		}
		cum[bound] += v - before[series]
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= target {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*(target-below)/(cum[b]-below)
		}
		lo, below = b, cum[b]
	}
	return lo
}
