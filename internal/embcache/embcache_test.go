package embcache

import (
	"testing"
	"testing/quick"

	"recsys/internal/stats"
	"recsys/internal/trace"
)

func policies(capacity int) map[string]Policy {
	return map[string]Policy{
		"LRU":  NewLRU(capacity),
		"FIFO": NewFIFO(capacity),
		"LFU":  NewLFU(capacity),
	}
}

func TestConstructorsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLRU(0) },
		func() { NewFIFO(-1) },
		func() { NewLFU(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBasicHitMiss(t *testing.T) {
	for name, p := range policies(2) {
		if p.Access(1) {
			t.Errorf("%s: cold access hit", name)
		}
		if !p.Access(1) {
			t.Errorf("%s: warm access missed", name)
		}
		if p.Name() != name {
			t.Errorf("%s: name %q", name, p.Name())
		}
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		capacity := 1 + r.Intn(50)
		for _, p := range policies(capacity) {
			for i := 0; i < 500; i++ {
				p.Access(uint64(r.Intn(200)))
				if p.Len() > capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // 1 is now MRU
	c.Access(3) // evicts 2
	if !c.Access(1) {
		t.Error("1 should have survived")
	}
	if c.Access(2) {
		t.Error("2 should have been evicted")
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	c := NewFIFO(2)
	c.Access(1)
	c.Access(2)
	c.Access(1) // hit; does NOT refresh FIFO order
	c.Access(3) // evicts 1 (oldest admission)
	// Probe 2 first (a hit does not mutate), then 1.
	if !c.Access(2) {
		t.Error("2 should have survived")
	}
	if c.Access(1) {
		t.Error("1 should have been evicted (FIFO ignores recency)")
	}
}

func TestFIFOQueueCompaction(t *testing.T) {
	c := NewFIFO(4)
	// Push enough distinct IDs to force several compactions.
	for i := uint64(0); i < 1000; i++ {
		c.Access(i)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	// The last four IDs must be resident.
	for i := uint64(996); i < 1000; i++ {
		if !c.Access(i) {
			t.Errorf("recent ID %d missing", i)
		}
	}
}

func TestLFUKeepsHotItems(t *testing.T) {
	c := NewLFU(2)
	for i := 0; i < 10; i++ {
		c.Access(1) // very hot
	}
	c.Access(2)
	c.Access(3) // evicts 2 (freq 1), never 1
	if !c.Access(1) {
		t.Error("hot item evicted by LFU")
	}
	if c.Access(2) {
		t.Error("cold item should have been evicted")
	}
}

func TestHitRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HitRate(NewLRU(4), trace.NewUniform(10, stats.NewRNG(1)), 0)
}

// TestLFUBeatsLRUOnZipf: frequency-aware eviction wins on stationary
// skewed popularity.
func TestLFUBeatsLRUOnZipf(t *testing.T) {
	rng := stats.NewRNG(5)
	const rows = 100000
	capacity := rows / 100
	mk := func() (Policy, Policy) { return NewLFU(capacity), NewLRU(capacity) }
	lfu, lru := mk()
	gl := trace.NewZipfian(rows, 1.05, rng.Split())
	gr := trace.NewZipfian(rows, 1.05, rng.Split())
	hLFU := HitRate(lfu, gl, 60000)
	hLRU := HitRate(lru, gr, 60000)
	if hLFU <= hLRU-0.01 {
		t.Errorf("LFU (%.3f) should not lose to LRU (%.3f) on Zipf", hLFU, hLRU)
	}
	if hLFU < 0.2 {
		t.Errorf("LFU hit rate %.3f suspiciously low on Zipf(1.05)", hLFU)
	}
}

// TestLRUBeatsFIFOOnSkew: recency-aware eviction keeps hot rows alive,
// while FIFO cycles them out a fixed number of admissions after entry
// no matter how often they hit.
func TestLRUBeatsFIFOOnSkew(t *testing.T) {
	rng := stats.NewRNG(6)
	const rows = 100000
	capacity := rows / 100
	gl := trace.NewZipfian(rows, 1.05, rng.Split())
	gf := trace.NewZipfian(rows, 1.05, rng.Split())
	hLRU := HitRate(NewLRU(capacity), gl, 60000)
	hFIFO := HitRate(NewFIFO(capacity), gf, 60000)
	if hLRU <= hFIFO {
		t.Errorf("LRU (%.3f) should beat FIFO (%.3f) on Zipf popularity", hLRU, hFIFO)
	}
}

// TestSweepMonotone: more capacity never hurts (within noise).
func TestSweepMonotone(t *testing.T) {
	rng := stats.NewRNG(7)
	g := trace.NewZipfian(50000, 1.1, rng)
	pts := Sweep(func(c int) Policy { return NewLRU(c) }, g, []float64{0.001, 0.01, 0.05, 0.2}, 30000)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].HitRate < pts[i-1].HitRate-0.02 {
			t.Errorf("hit rate dropped with capacity: %+v", pts)
		}
	}
	if pts[3].HitRate < 0.3 {
		t.Errorf("20%% cache on Zipf(1.1) should capture substantial mass, got %.3f", pts[3].HitRate)
	}
}

func TestTieredStore(t *testing.T) {
	s := DefaultTieredStore()
	if s.AvgGatherNs(1) != s.DRAMLatencyNs || s.AvgGatherNs(0) != s.NVMLatencyNs {
		t.Error("tier endpoints wrong")
	}
	if s.Speedup(0.9) <= 3 {
		t.Errorf("90%% hit rate speedup = %.2f, want > 3 with 90ns/1500ns tiers", s.Speedup(0.9))
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid hit rate should panic")
		}
	}()
	s.AvgGatherNs(1.5)
}

// TestHitRateBoundedByLocality: the hit rate of any policy cannot
// exceed 1 minus the unique-ID fraction by a wide margin plus the
// resident fraction (a sanity bound tying Figure 14 to caching).
func TestHitRateBoundedByLocality(t *testing.T) {
	rng := stats.NewRNG(8)
	const rows = 200000
	g := trace.NewUniform(rows, rng.Split())
	// Uniform over a huge table with a tiny cache: hit rate ~ capacity/rows.
	h := HitRate(NewLRU(200), g, 50000)
	if h > 0.01 {
		t.Errorf("uniform trace hit rate %.4f should be ~capacity/rows", h)
	}
}
