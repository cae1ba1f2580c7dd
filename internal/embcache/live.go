package embcache

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// Concurrent is the live, serving-path promotion of this package's
// policy work: a sharded, lock-striped, fixed-capacity row cache that
// SLSOp.ForwardEx consults read-through — the software analogue of
// RecNMP's hot-row memoization, exploiting the skewed sparse-ID
// popularity of the paper's Figure 14/15. Each shard owns a replacement
// core (core.go) and a flat row store under one mutex, so lookups from
// different executor workers stripe across locks instead of
// serializing. The rows it caches come from a read-only tier, so a
// cached row never goes stale and nothing ever invalidates one.
type Concurrent struct {
	cols   int
	shift  uint // shard index = top bits of the mixed ID
	shards []shard
}

// shard is one lock stripe: the replacement core and one row of data
// per core slot.
type shard struct {
	mu sync.Mutex
	core
	data []float32 // slot-major row store, cap×cols

	hits, misses int64
}

// admitEvery is the lazy-admission rate once a shard is full: only
// every admitEvery'th missing row may evict a resident one. Admitting
// every miss makes a working set larger than the cache churn the
// entire shard each pass — the classic sequential-scan thrash, which
// the sorted gather plan's ascending ID order makes pathological
// (measured 0% hits) — and the eviction bookkeeping itself (map
// delete+insert, list splice, row copy) costs about as much as a hit
// saves. Sampling admissions keeps resident hot rows resident: a row
// seen every pass gets admitted within a few passes and then stays,
// while one-pass tail rows mostly never displace anything. Power of
// two, so the modulo is a mask.
const admitEvery = 4

// NewConcurrent returns a cache holding capacity rows of cols elements,
// striped over shards locks (0 = derived from GOMAXPROCS, rounded to a
// power of two). Per-shard capacity is capacity/shards rounded up, so
// the effective Capacity may slightly exceed the request.
func NewConcurrent(capacity, cols int, policy string, shards int) (*Concurrent, error) {
	if capacity <= 0 || cols <= 0 {
		return nil, fmt.Errorf("embcache: capacity and cols must be positive, got %d, %d", capacity, cols)
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 16 {
			shards = 16
		}
	}
	lg := bits.Len(uint(shards - 1)) // log2 of shards rounded up to a power of two
	n := 1 << lg
	c := &Concurrent{cols: cols, shift: uint(64 - lg), shards: make([]shard, n)}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i].core = newCore(pol, per, admitEvery)
		c.shards[i].data = make([]float32, per*cols)
	}
	return c, nil
}

// fibMix scatters row IDs across shards (sequential IDs from a sorted
// gather plan must not all land on one stripe).
const fibMix = 0x9E3779B97F4A7C15

func (c *Concurrent) shard(id uint64) *shard {
	return &c.shards[(id*fibMix)>>c.shift]
}

// Gen returns 0, and Lookup and Insert ignore their first argument:
// cached rows have no generation. The token shape stays only because
// the system benchmark (bench/) calls Gen, Lookup(gen, …) and
// Insert(gen, …).
func (c *Concurrent) Gen() uint64 { return 0 }

// Cols returns the row width.
func (c *Concurrent) Cols() int { return c.cols }

// Capacity returns the total row capacity across shards.
func (c *Concurrent) Capacity() int {
	return len(c.shards) * c.shards[0].cap
}

// Lookup copies row id into dst and reports a hit.
func (c *Concurrent) Lookup(_, id uint64, dst []float32) bool {
	if len(dst) != c.cols {
		panic(fmt.Sprintf("embcache: Lookup dst length %d, want %d", len(dst), c.cols))
	}
	s := c.shard(id)
	s.mu.Lock()
	slot, ok := s.find(id)
	if !ok {
		s.misses++
		s.mu.Unlock()
		return false
	}
	copy(dst, s.data[int(slot)*c.cols:(int(slot)+1)*c.cols])
	s.touch(slot)
	s.hits++
	s.mu.Unlock()
	return true
}

// Insert admits row id with the given contents (read-through fill
// after a Lookup miss), evicting per policy when the shard is full. A
// concurrent duplicate insert overwrites in place (both fills read the
// same source row).
func (c *Concurrent) Insert(_, id uint64, src []float32) {
	if len(src) != c.cols {
		panic(fmt.Sprintf("embcache: Insert src length %d, want %d", len(src), c.cols))
	}
	s := c.shard(id)
	s.mu.Lock()
	slot, ok := s.find(id)
	if !ok {
		// A full shard admits lazily (admitEvery).
		if slot, ok = s.admit(id); !ok {
			s.mu.Unlock()
			return
		}
	}
	copy(s.data[int(slot)*c.cols:(int(slot)+1)*c.cols], src)
	s.mu.Unlock()
}

// LiveStats is a point-in-time counter snapshot of a Concurrent cache.
type LiveStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Len counts resident rows.
	Len int `json:"len"`
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (st LiveStats) HitRate() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// Stats sums the per-shard counters.
func (c *Concurrent) Stats() LiveStats {
	var st LiveStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Len += s.used
		s.mu.Unlock()
	}
	return st
}
