package stats

import (
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers distribution
// queries (mean, percentiles, min/max). It keeps every observation, so
// it is intended for simulation-scale sample counts (≤ millions).
type Sample struct {
	values []float64
	sorted bool
}

// NewSample returns an empty Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(vs []float64) {
	s.values = append(s.values, vs...)
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Std returns the population standard deviation, or 0 for fewer than
// two observations.
func (s *Sample) Std() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Values returns a copy of the observations in insertion-independent
// (sorted) order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Summary is a compact five-number-plus-mean description of a Sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, P5, P50  float64
	P95, P99, Max float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.Len(),
		Mean: s.Mean(),
		Std:  s.Std(),
		Min:  s.Min(),
		P5:   s.Percentile(5),
		P50:  s.Percentile(50),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
		Max:  s.Max(),
	}
}

// Histogram counts observations into uniform-width bins over [lo, hi).
// Observations outside the range are clamped into the edge bins so that
// totals are preserved.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram returns a histogram with bins uniform-width bins spanning
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: histogram with empty range")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}

// Modes returns bin-center values of local maxima whose count is at
// least minFrac of the total. It is used to detect the multi-modal
// operator-latency distributions of Figure 11a.
func (h *Histogram) Modes(minFrac float64) []float64 {
	var modes []float64
	if h.total == 0 {
		return modes
	}
	minCount := int(minFrac * float64(h.total))
	for i := range h.Counts {
		c := h.Counts[i]
		if c < minCount || c == 0 {
			continue
		}
		left := 0
		if i > 0 {
			left = h.Counts[i-1]
		}
		right := 0
		if i < len(h.Counts)-1 {
			right = h.Counts[i+1]
		}
		if c >= left && c > right || c > left && c >= right {
			modes = append(modes, h.BinCenter(i))
		}
	}
	return modes
}
