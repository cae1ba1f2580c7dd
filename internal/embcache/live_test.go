package embcache

import (
	"sync"
	"testing"
)

// liveRow returns the deterministic contents of row id, so any cache
// hit can be verified against what the id must hold.
func liveRow(id uint64, cols int) []float32 {
	row := make([]float32, cols)
	for j := range row {
		row[j] = float32(id)*100 + float32(j)
	}
	return row
}

func mustConcurrent(t *testing.T, capacity, cols int, policy string, shards int) *Concurrent {
	t.Helper()
	c, err := NewConcurrent(capacity, cols, policy, shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConcurrentConstructor(t *testing.T) {
	if _, err := NewConcurrent(0, 8, "lru", 1); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewConcurrent(8, 0, "lru", 1); err == nil {
		t.Error("cols 0 accepted")
	}
	if _, err := NewConcurrent(8, 8, "arc", 1); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, p := range append(Policies(), "") {
		if _, err := NewConcurrent(8, 8, p, 1); err != nil {
			t.Errorf("NewConcurrent policy %q: %v", p, err)
		}
	}
	c := mustConcurrent(t, 10, 4, "", 3) // shards round up to 4
	if got := len(c.shards); got != 4 {
		t.Errorf("shards = %d, want 4", got)
	}
	if c.Capacity() < 10 {
		t.Errorf("Capacity() = %d, want >= 10", c.Capacity())
	}
	if got := Policies()[c.shards[0].policy]; got != "lru" {
		t.Errorf("default policy = %q, want lru", got)
	}
}

func TestConcurrentHitMiss(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			c := mustConcurrent(t, 16, 4, pol, 2)
			gen := c.Gen()
			dst := make([]float32, 4)
			if c.Lookup(gen, 7, dst) {
				t.Fatal("hit on empty cache")
			}
			c.Insert(gen, 7, liveRow(7, 4))
			if !c.Lookup(gen, 7, dst) {
				t.Fatal("miss after insert")
			}
			want := liveRow(7, 4)
			for j := range dst {
				if dst[j] != want[j] {
					t.Fatalf("row contents = %v, want %v", dst, want)
				}
			}
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
				t.Errorf("stats = %+v, want 1 hit, 1 miss, len 1", st)
			}
			if got := st.HitRate(); got != 0.5 {
				t.Errorf("hit rate = %v, want 0.5", got)
			}
		})
	}
}

// Policy behavior under eviction, on a single shard so admission order
// is fully deterministic.
func TestConcurrentLRUEvictsLeastRecent(t *testing.T) {
	c := mustConcurrent(t, 2, 2, "lru", 1)
	gen := c.Gen()
	dst := make([]float32, 2)
	c.Insert(gen, 1, liveRow(1, 2))
	c.Insert(gen, 2, liveRow(2, 2))
	c.Lookup(gen, 1, dst)           // 1 is now most recent
	c.Insert(gen, 3, liveRow(3, 2)) // evicts 2
	if !c.Lookup(gen, 1, dst) {
		t.Error("recently used row 1 evicted")
	}
	if c.Lookup(gen, 2, dst) {
		t.Error("least-recent row 2 survived")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestConcurrentFIFOEvictsOldest(t *testing.T) {
	c := mustConcurrent(t, 2, 2, "fifo", 1)
	gen := c.Gen()
	dst := make([]float32, 2)
	c.Insert(gen, 1, liveRow(1, 2))
	c.Insert(gen, 2, liveRow(2, 2))
	c.Lookup(gen, 1, dst)           // hit must NOT rescue 1 under fifo
	c.Insert(gen, 3, liveRow(3, 2)) // evicts 1 (oldest admission)
	if c.Lookup(gen, 1, dst) {
		t.Error("oldest row 1 survived under fifo")
	}
	if !c.Lookup(gen, 2, dst) {
		t.Error("row 2 evicted out of order")
	}
}

func TestConcurrentClockSecondChance(t *testing.T) {
	c := mustConcurrent(t, 2, 2, "clock", 1)
	gen := c.Gen()
	dst := make([]float32, 2)
	c.Insert(gen, 1, liveRow(1, 2)) // slot 0
	c.Insert(gen, 2, liveRow(2, 2)) // slot 1
	c.Lookup(gen, 1, dst)           // sets slot 0's ref bit
	c.Insert(gen, 3, liveRow(3, 2)) // hand skips slot 0 (second chance), evicts 2
	if !c.Lookup(gen, 1, dst) {
		t.Error("referenced row 1 evicted despite second chance")
	}
	if c.Lookup(gen, 2, dst) {
		t.Error("unreferenced row 2 survived")
	}
}

// TestConcurrentRace hammers lookups and read-through inserts
// together. Row contents are a pure function of the ID, so any hit can
// be checked for integrity; run under -race this also exercises the
// lock striping.
func TestConcurrentRace(t *testing.T) {
	const (
		workers = 8
		iters   = 2000
		idSpace = 64
		cols    = 8
	)
	c := mustConcurrent(t, 32, cols, "lru", 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			dst := make([]float32, cols)
			for i := 0; i < iters; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				id := (seed >> 33) % idSpace
				gen := c.Gen()
				if c.Lookup(gen, id, dst) {
					want := liveRow(id, cols)
					for j := range dst {
						if dst[j] != want[j] {
							t.Errorf("hit for id %d returned wrong row", id)
							return
						}
					}
				} else {
					c.Insert(gen, id, liveRow(id, cols))
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses == 0 {
		t.Error("no accesses recorded")
	}
}
