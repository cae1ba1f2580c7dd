package cache

import (
	"testing"
	"testing/quick"

	"recsys/internal/stats"
)

// contains reports whether line is resident without disturbing LRU
// order or counters.
func contains(c *Cache, line uint64) bool {
	for _, l := range c.lines[c.set(line)] {
		if l == line {
			return true
		}
	}
	return false
}

func TestNewGeometry(t *testing.T) {
	c := New("t", 32<<10, 8) // 32KB, 8-way, 64B lines → 64 sets
	if c.sets != 64 || c.ways != 8 {
		t.Fatalf("geometry sets=%d ways=%d", c.sets, c.ways)
	}
}

func TestNewRoundsToPowerOfTwoSets(t *testing.T) {
	// 27.5MB 11-way: 27.5<<20/64/11 = 40960 sets → rounds down to 32768.
	c := New("skl-l3", 27<<20+512<<10, 11)
	if c.sets != 32768 {
		t.Fatalf("sets = %d, want 32768", c.sets)
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 1024, 0) },
		func() { New("x", 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid cache construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLookupInsertBasic(t *testing.T) {
	c := New("t", 4096, 4) // 16 sets
	line := uint64(0x1000)
	if c.Lookup(line) {
		t.Fatal("cold lookup should miss")
	}
	c.Insert(line)
	if !c.Lookup(line) {
		t.Fatal("inserted line should hit")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1,1", c.hits, c.misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", 256, 4) // 1 set, 4 ways
	if c.sets != 1 {
		t.Fatalf("want single set, got %d", c.sets)
	}
	for i := uint64(0); i < 4; i++ {
		if _, ev := c.Insert(i); ev {
			t.Fatal("no eviction expected while filling")
		}
	}
	// Touch line 0 so it becomes MRU; inserting line 4 must evict the
	// LRU, which is now line 1.
	c.Lookup(0)
	victim, ev := c.Insert(4)
	if !ev || victim != 1 {
		t.Fatalf("victim = %d (evicted=%v), want 1", victim, ev)
	}
	if !contains(c, 0) || contains(c, 1) || !contains(c, 4) {
		t.Error("post-eviction contents wrong")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New("t", 256, 4)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i)
	}
	c.Insert(0) // refresh, no eviction
	victim, ev := c.Insert(9)
	if !ev || victim != 1 {
		t.Fatalf("victim = %d, want 1 after refresh of 0", victim)
	}
}

func TestInvalidate(t *testing.T) {
	c := New("t", 256, 4)
	c.Insert(5)
	if !c.Invalidate(5) {
		t.Fatal("invalidate of present line should report true")
	}
	if c.Invalidate(5) {
		t.Fatal("invalidate of absent line should report false")
	}
	if contains(c, 5) {
		t.Fatal("line survived invalidation")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New("t", 256, 4)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i)
	}
	contains(c, 0) // must NOT refresh LRU
	victim, _ := c.Insert(9)
	if victim != 0 {
		t.Fatalf("victim = %d; contains appears to update LRU", victim)
	}
	h, m := c.hits, c.misses
	contains(c, 9)
	if c.hits != h || c.misses != m {
		t.Error("contains changed counters")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New("t", 256, 4)
	c.Insert(1)
	c.Lookup(1)
	c.Lookup(2)
	c.ResetStats()
	if c.hits != 0 || c.misses != 0 {
		t.Fatal("ResetStats failed")
	}
	if !contains(c, 1) {
		t.Fatal("ResetStats should not flush contents")
	}
}

// Property: cache occupancy never exceeds sets × ways, and a line just
// inserted is always resident.
func TestCacheInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		c := New("t", 4096, 2+r.Intn(6))
		for i := 0; i < 2000; i++ {
			line := uint64(r.Intn(10000))
			if !c.Lookup(line) {
				c.Insert(line)
			}
			if !contains(c, line) {
				return false
			}
		}
		occupied := 0
		for s := 0; s < c.sets; s++ {
			for _, l := range c.lines[s] {
				if int(l&c.setMask) != s {
					return false // line in wrong set
				}
				occupied++
			}
		}
		return occupied <= c.sets*c.ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == number of Lookup calls.
func TestCountersConsistent(t *testing.T) {
	r := stats.NewRNG(3)
	c := New("t", 2048, 4)
	n := 5000
	for i := 0; i < n; i++ {
		line := uint64(r.Intn(500))
		if !c.Lookup(line) {
			c.Insert(line)
		}
	}
	if int(c.hits+c.misses) != n {
		t.Fatalf("hits+misses = %d, want %d", c.hits+c.misses, n)
	}
}

func TestWorkingSetFitsAllHits(t *testing.T) {
	c := New("t", 64<<10, 8) // 64KB: holds 1024 lines
	// Touch 256 distinct lines twice; second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 256; i++ {
			if !c.Lookup(i) {
				c.Insert(i)
			}
		}
	}
	if c.misses != 256 {
		t.Errorf("misses = %d, want 256 (cold only)", c.misses)
	}
	if c.hits != 256 {
		t.Errorf("hits = %d, want 256", c.hits)
	}
}

func TestStreamLargerThanCacheAllMisses(t *testing.T) {
	c := New("t", 4096, 4) // 64 lines
	// Stream 1000 distinct lines twice with a stride wider than the
	// cache: LRU guarantees zero reuse.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 1000; i++ {
			if !c.Lookup(i) {
				c.Insert(i)
			}
		}
	}
	if c.hits != 0 {
		t.Errorf("hits = %d, want 0 for a thrashing stream", c.hits)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 || LineAddr(130) != 2 {
		t.Error("LineAddr arithmetic wrong")
	}
}
