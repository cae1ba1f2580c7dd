package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Mean() != 0 || s.Std() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleMeanStd(t *testing.T) {
	s := NewSample(5)
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("std = %v, want 2", got)
	}
}

func TestPercentileExact(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 101; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(50); got != 51 {
		t.Errorf("p50 = %v, want 51", got)
	}
	if got := s.Percentile(100); got != 101 {
		t.Errorf("p100 = %v, want 101", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(0)
	s.AddAll([]float64{0, 10})
	if got := s.Percentile(25); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("p25 = %v, want 2.5", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		s := NewSample(0)
		n := 2 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(r.Float64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileWithinBounds(t *testing.T) {
	f := func(seed uint64, p float64) bool {
		p = math.Mod(math.Abs(p), 100)
		r := NewRNG(seed)
		s := NewSample(0)
		n := 1 + r.Intn(100)
		for i := 0; i < n; i++ {
			s.Add(r.NormFloat64())
		}
		v := s.Percentile(p)
		return v >= s.Min() && v <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := NewSample(0)
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 1000 {
		t.Errorf("N = %d, want 1000", sum.N)
	}
	if sum.P50 < 490 || sum.P50 > 510 {
		t.Errorf("p50 = %v, want ~500", sum.P50)
	}
	if sum.P99 < 980 {
		t.Errorf("p99 = %v, want >= 980", sum.P99)
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d count = %d, want 1", i, c)
		}
	}
	if h.total != 10 {
		t.Errorf("total = %d, want 10", h.total)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(50)
	if h.Counts[0] != 1 || h.Counts[9] != 1 {
		t.Errorf("out-of-range values not clamped: %v", h.Counts)
	}
}

func TestHistogramModes(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	r := NewRNG(31)
	// Two well-separated normal modes at 25 and 75.
	for i := 0; i < 5000; i++ {
		h.Add(25 + 3*r.NormFloat64())
		h.Add(75 + 3*r.NormFloat64())
	}
	modes := h.Modes(0.01)
	foundLow, foundHigh := false, false
	for _, m := range modes {
		if m > 20 && m < 30 {
			foundLow = true
		}
		if m > 70 && m < 80 {
			foundHigh = true
		}
	}
	if !foundLow || !foundHigh {
		t.Errorf("bimodal distribution modes = %v, want one near 25 and one near 75", modes)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 5) },
		func() { NewHistogram(10, 5, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid histogram construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if got := h.BinCenter(0); got != 0.5 {
		t.Errorf("BinCenter(0) = %v, want 0.5", got)
	}
	if got := h.BinCenter(9); got != 9.5 {
		t.Errorf("BinCenter(9) = %v, want 9.5", got)
	}
}
