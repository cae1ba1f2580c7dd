package embcache

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Concurrent is the live, serving-path promotion of this package's
// policy work: a sharded, lock-striped, fixed-capacity row cache that
// SLSOp.ForwardEx consults read-through — the software analogue of
// RecNMP's hot-row memoization, exploiting the skewed sparse-ID
// popularity of the paper's Figure 14/15. Each shard owns a replacement
// core (core.go) and a flat row store under one mutex, so lookups from
// different executor workers stripe across locks instead of
// serializing.
//
// Coherence is generation-based. Every pass captures Gen() once and
// passes it to Lookup/Insert; Invalidate bumps the generation, after
// which stale-generation lookups miss and stale-generation inserts are
// dropped, while shards lazily reset the first time the new generation
// touches them. The engine invalidates on model hot-swap and the
// trainer on sparse-row updates — the SLS counterpart of the FC
// packed-weight invalidation.
type Concurrent struct {
	cols   int
	shift  uint // shard index = top bits of the mixed ID
	shards []shard
	gen    atomic.Uint64
}

// shard is one lock stripe: the replacement core, one row of data per
// core slot, and the generation the contents belong to.
type shard struct {
	mu  sync.Mutex
	gen uint64
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

// Gen returns the current generation token. A forward pass captures it
// once and passes it to every Lookup/Insert of the pass, so rows cached
// before an Invalidate can never be served after one.
func (c *Concurrent) Gen() uint64 { return c.gen.Load() }

// Invalidate discards every cached row by advancing the generation.
// In-flight passes holding the old token fall back to their own
// model's tables; shards reset lazily on first new-generation access.
func (c *Concurrent) Invalidate() { c.gen.Add(1) }

// Cols returns the row width.
func (c *Concurrent) Cols() int { return c.cols }

// Capacity returns the total row capacity across shards.
func (c *Concurrent) Capacity() int {
	return len(c.shards) * c.shards[0].cap
}

// syncGenLocked reconciles the shard with the caller's generation. It
// reports whether the caller may use the shard: false means the shard
// already belongs to a NEWER generation (the caller's pass started
// before an invalidation and must not touch it).
func (s *shard) syncGenLocked(gen uint64) bool {
	if s.gen == gen {
		return true
	}
	if s.gen > gen {
		return false
	}
	s.reset()
	s.gen = gen
	return true
}

// Lookup copies row id into dst and reports a hit. gen must be the
// token captured by the calling pass; a stale token always misses, so
// the caller falls back to its own model's table.
func (c *Concurrent) Lookup(gen, id uint64, dst []float32) bool {
	if len(dst) != c.cols {
		panic(fmt.Sprintf("embcache: Lookup dst length %d, want %d", len(dst), c.cols))
	}
	if gen != c.gen.Load() {
		return false
	}
	s := c.shard(id)
	s.mu.Lock()
	if !s.syncGenLocked(gen) {
		s.misses++
		s.mu.Unlock()
		return false
	}
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
// after a Lookup miss), evicting per policy when the shard is full.
// Stale-generation inserts are dropped; a concurrent duplicate insert
// overwrites in place (both fills read the same source row).
func (c *Concurrent) Insert(gen, id uint64, src []float32) {
	if len(src) != c.cols {
		panic(fmt.Sprintf("embcache: Insert src length %d, want %d", len(src), c.cols))
	}
	if gen != c.gen.Load() {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if !s.syncGenLocked(gen) {
		s.mu.Unlock()
		return
	}
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
	// Len counts resident rows of the current generation.
	Len int `json:"len"`
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (st LiveStats) HitRate() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// Stats sums the per-shard counters. Counters are cumulative across
// invalidations; Len covers only shards already on the current
// generation (stale shards hold no servable rows).
func (c *Concurrent) Stats() LiveStats {
	cur := c.gen.Load()
	var st LiveStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		if s.gen == cur {
			st.Len += s.used
		}
		s.mu.Unlock()
	}
	return st
}
