package obs

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestRingNilWhenDisabled(t *testing.T) {
	if r := NewRing(0); r != nil {
		t.Fatal("NewRing(0) should return the nil disabled sentinel")
	}
	if r := NewRing(-3); r != nil {
		t.Fatal("NewRing(-3) should return the nil disabled sentinel")
	}
}

func TestRingRecentKeepsNewestFirst(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(&Trace{Batch: i, TotalUS: float64(i)})
	}
	recent, _ := r.Snapshot()
	if len(recent) != 3 {
		t.Fatalf("recent length %d, want 3", len(recent))
	}
	for i, want := range []int{5, 4, 3} {
		if recent[i].Batch != want {
			t.Fatalf("recent[%d].Batch = %d, want %d", i, recent[i].Batch, want)
		}
	}
	if r.Added() != 5 {
		t.Fatalf("Added() = %d, want 5", r.Added())
	}
}

func TestRingSlowestBoard(t *testing.T) {
	r := NewRing(3)
	// Interleave slow and fast: the board must keep the global top 3 by
	// TotalUS regardless of arrival order.
	for _, us := range []float64{10, 500, 20, 300, 5, 400, 1} {
		r.Add(&Trace{TotalUS: us})
	}
	_, slow := r.Snapshot()
	if len(slow) != 3 {
		t.Fatalf("slowest length %d, want 3", len(slow))
	}
	for i, want := range []float64{500, 400, 300} {
		if slow[i].TotalUS != want {
			t.Fatalf("slowest[%d].TotalUS = %v, want %v", i, slow[i].TotalUS, want)
		}
	}
}

func TestRingConcurrentAddSnapshot(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(&Trace{TotalUS: float64(g*1000 + i)})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			recent, slow := r.Snapshot()
			if len(recent) > 8 || len(slow) > 8 {
				t.Errorf("snapshot overflow: %d recent, %d slowest", len(recent), len(slow))
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Added(); got != 2000 {
		t.Fatalf("Added() = %d, want 2000", got)
	}
	_, slow := r.Snapshot()
	// The four goroutines' maxima are 499/1499/2499/3499; the top-8
	// board must at least hold the global maximum.
	if slow[0].TotalUS != 3499 {
		t.Fatalf("slowest[0].TotalUS = %v, want 3499", slow[0].TotalUS)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 1001, 50_000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 2} // ≤10, ≤100, ≤1000, +Inf
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d count %d, want %d", i, s.Counts[i], n)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count %d, want 7", s.Count)
	}
	if s.Sum != 5+10+11+100+500+1001+50_000 {
		t.Fatalf("sum %d", s.Sum)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{nil, {}, {10, 10}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBoundsNS)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i) * 1_000_000)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count %d, want 8000", s.Count)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != 8000 {
		t.Fatalf("bucket total %d, want 8000", total)
	}
}

// TestObserveBinarySearchMatchesLinear pins the bucket-selection
// refactor: binary search must land every value in exactly the bucket
// the original linear scan chose, including the bound-equality and
// +Inf edge cases.
func TestObserveBinarySearchMatchesLinear(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	for _, v := range []int64{-5, 0, 9, 10, 11, 99, 100, 101, 1000, 1001, 1 << 40} {
		h := NewHistogram(bounds)
		h.Observe(v)
		want := 0
		for want < len(bounds) && v > bounds[want] {
			want++
		}
		s := h.Snapshot()
		for i, c := range s.Counts {
			if (i == want) != (c == 1) {
				t.Fatalf("Observe(%d): counts %v, want single count in bucket %d", v, s.Counts, want)
			}
		}
	}
}

func TestSnapshotSubDelta(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	first := h.Snapshot()
	h.Observe(50)
	h.Observe(500)
	delta := h.Snapshot().Sub(first)
	if got, want := delta.Counts, []int64{0, 1, 1}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("delta counts %v, want %v", got, want)
	}
	if delta.Count != 2 || delta.Sum != 550 {
		t.Fatalf("delta count=%d sum=%d, want 2, 550", delta.Count, delta.Sum)
	}
	// Zero-value prev is start-of-time: the delta is the snapshot itself.
	if d := first.Sub(HistSnapshot{}); d.Count != first.Count {
		t.Fatalf("Sub(zero) count %d, want %d", d.Count, first.Count)
	}
}

// TestSnapshotAdd: the sum of two histograms' snapshots is the snapshot
// of one histogram that observed both streams, and the sum of the parts
// of one histogram (Sub, then Add) is the whole.
func TestSnapshotAdd(t *testing.T) {
	a, b, both := NewHistogram([]int64{10, 100}), NewHistogram([]int64{10, 100}), NewHistogram([]int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		a.Observe(v)
		both.Observe(v)
	}
	for _, v := range []int64{50, 50, 7} {
		b.Observe(v)
		both.Observe(v)
	}
	got, want := HistSnapshot{}.Add(a.Snapshot()).Add(b.Snapshot()), both.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || !slices.Equal(got.Counts, want.Counts) {
		t.Fatalf("sum %+v, want %+v", got, want)
	}
	first := a.Snapshot()
	a.Observe(70)
	whole := a.Snapshot()
	if re := first.Add(whole.Sub(first)); re.Count != whole.Count || re.Sum != whole.Sum || !slices.Equal(re.Counts, whole.Counts) {
		t.Fatalf("first + (whole - first) = %+v, want %+v", re, whole)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 400})
	// 100 values uniformly in (100, 200]: the q-quantile interpolates
	// to 100 + q*100.
	for i := 0; i < 100; i++ {
		h.Observe(150)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 150 {
		t.Fatalf("Quantile(0.5) = %v, want 150", got)
	}
	if got := s.Quantile(0.99); got != 199 {
		t.Fatalf("Quantile(0.99) = %v, want 199", got)
	}
	// First bucket interpolates from zero.
	h2 := NewHistogram([]int64{100, 200})
	h2.Observe(10)
	if got := h2.Snapshot().Quantile(1); got != 100 {
		t.Fatalf("first-bucket Quantile(1) = %v, want 100", got)
	}
	// +Inf bucket clamps to the last finite bound.
	h3 := NewHistogram([]int64{100, 200})
	h3.Observe(10_000)
	if got := h3.Snapshot().Quantile(0.99); got != 200 {
		t.Fatalf("+Inf Quantile = %v, want clamp to 200", got)
	}
	// Empty snapshot.
	if got := NewHistogram([]int64{10}).Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
}

func TestQuantileSpansBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 30})
	// 50 in (0,10], 30 in (10,20], 20 in (20,30]: p90 rank 90 lands 10
	// deep into the 20-count third bucket → 20 + (90-80)/20 * 10 = 25.
	for i := 0; i < 50; i++ {
		h.Observe(5)
	}
	for i := 0; i < 30; i++ {
		h.Observe(15)
	}
	for i := 0; i < 20; i++ {
		h.Observe(25)
	}
	if got := h.Snapshot().Quantile(0.9); got != 25 {
		t.Fatalf("Quantile(0.9) = %v, want 25", got)
	}
}

func TestWriteHistogramCumulativeAndScaled(t *testing.T) {
	h := NewHistogram([]int64{1_000_000, 10_000_000}) // 1ms, 10ms in ns
	h.Observe(500_000)
	h.Observe(2_000_000)
	h.Observe(2_000_000)
	h.Observe(60_000_000)
	var b strings.Builder
	WriteHistogram(&b, "x_seconds", []Label{{"model", "m"}}, h.Snapshot(), 1e9)
	want := `x_seconds_bucket{model="m",le="0.001"} 1
x_seconds_bucket{model="m",le="0.01"} 3
x_seconds_bucket{model="m",le="+Inf"} 4
x_seconds_sum{model="m"} 0.0645
x_seconds_count{model="m"} 4
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	WriteIntSample(&b, "m_total", []Label{{"model", "a\"b\\c\nd"}}, 1)
	want := `m_total{model="a\"b\\c\nd"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
}

func TestTraceStageSum(t *testing.T) {
	tr := &Trace{ValidateUS: 1, QueueWaitUS: 10, BatchFormUS: 100, ExecuteUS: 1000}
	if got := tr.StageSumUS(); got != 1111 {
		t.Fatalf("StageSumUS = %v, want 1111", got)
	}
}
