package embcache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Concurrent is the live, serving-path promotion of this package's
// policy work: a sharded, lock-striped, fixed-capacity row cache that
// SLSOp.ForwardEx consults read-through — the software analogue of
// RecNMP's hot-row memoization, exploiting the skewed sparse-ID
// popularity of the paper's Figure 14/15. Each shard owns a slot map,
// a flat row store, and its policy state under one mutex, so lookups
// from different executor workers stripe across locks instead of
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
	policy int
	shift  uint // shard index = top bits of the mixed ID
	shards []shard
	gen    atomic.Uint64
}

// Eviction policies. LFU stays offline-only (embcache.LFU): its
// frequency buckets allocate per access, which the zero-alloc serving
// contract rules out.
const (
	polLRU = iota
	polFIFO
	polClock
)

// Policies lists the eviction policies NewConcurrent accepts.
func Policies() []string { return []string{"lru", "fifo", "clock"} }

func parsePolicy(p string) (int, error) {
	switch strings.ToLower(p) {
	case "", "lru":
		return polLRU, nil
	case "fifo":
		return polFIFO, nil
	case "clock":
		return polClock, nil
	default:
		return 0, fmt.Errorf("embcache: unknown policy %q (want %s)", p, strings.Join(Policies(), ", "))
	}
}

// ValidatePolicy reports whether policy names a live eviction policy
// ("" selects the lru default), so config errors surface at engine
// construction instead of first lookup.
func ValidatePolicy(policy string) error {
	_, err := parsePolicy(policy)
	return err
}

// shard is one lock stripe: a slot map over a flat row store plus the
// policy state. prev/next/head/tail form the intrusive recency list
// (slot indices, -1 = none) for lru and fifo; ref/hand are the
// second-chance bits for clock.
type shard struct {
	mu   sync.Mutex
	gen  uint64
	cap  int
	used int

	slots map[uint64]int32
	ids   []uint64  // slot → row ID
	data  []float32 // slot-major row store, cap×cols

	prev, next []int32
	head, tail int32
	ref        []bool
	hand       int32

	// admitTick throttles evicting admissions (see admitEvery).
	admitTick uint64

	hits, misses, evictions int64
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
	n := 1
	for n < shards {
		n <<= 1
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	c := &Concurrent{cols: cols, policy: pol, shift: uint(64 - bits), shards: make([]shard, n)}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.slots = make(map[uint64]int32, per)
		s.ids = make([]uint64, per)
		s.data = make([]float32, per*cols)
		s.prev = make([]int32, per)
		s.next = make([]int32, per)
		s.head, s.tail = -1, -1
		if pol == polClock {
			s.ref = make([]bool, per)
		}
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

// PolicyName returns the eviction policy ("lru", "fifo", or "clock").
func (c *Concurrent) PolicyName() string { return Policies()[c.policy] }

// resetLocked clears the shard for a new generation. The map is
// cleared in place (clear keeps its buckets), so steady-state reuse
// after an invalidation does not reallocate.
func (s *shard) resetLocked(gen uint64) {
	clear(s.slots)
	s.used = 0
	s.head, s.tail = -1, -1
	s.hand = 0
	if s.ref != nil {
		clear(s.ref)
	}
	s.gen = gen
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
	s.resetLocked(gen)
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
	slot, ok := s.slots[id]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return false
	}
	copy(dst, s.data[int(slot)*c.cols:(int(slot)+1)*c.cols])
	switch c.policy {
	case polLRU:
		s.moveToFront(slot)
	case polClock:
		s.ref[slot] = true
	}
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
	slot, ok := s.slots[id]
	if !ok {
		if s.used < s.cap {
			slot = int32(s.used)
			s.used++
		} else {
			// Full shard: lazy admission. The tick starts the cycle on
			// an admit so a lone post-fill insert (and a hot row
			// re-offered within a few misses) still gets in.
			s.admitTick++
			if s.admitTick&(admitEvery-1) != 1 {
				s.mu.Unlock()
				return
			}
			slot = s.evictLocked()
			delete(s.slots, s.ids[slot])
			s.evictions++
		}
		s.ids[slot] = id
		s.slots[id] = slot
		switch c.policy {
		case polLRU, polFIFO:
			s.pushFront(slot)
		case polClock:
			s.ref[slot] = false
		}
	}
	copy(s.data[int(slot)*c.cols:(int(slot)+1)*c.cols], src)
	s.mu.Unlock()
}

// evictLocked selects and unlinks a victim slot. lru and fifo evict
// the list tail (fifo never reorders on hit, so its tail is the oldest
// admission); clock sweeps the hand, giving referenced slots a second
// chance.
func (s *shard) evictLocked() int32 {
	if s.ref != nil {
		for {
			h := s.hand
			s.hand++
			if int(s.hand) >= s.cap {
				s.hand = 0
			}
			if s.ref[h] {
				s.ref[h] = false
				continue
			}
			return h
		}
	}
	victim := s.tail
	s.unlink(victim)
	return victim
}

func (s *shard) pushFront(n int32) {
	s.prev[n] = -1
	s.next[n] = s.head
	if s.head >= 0 {
		s.prev[s.head] = n
	}
	s.head = n
	if s.tail < 0 {
		s.tail = n
	}
}

func (s *shard) unlink(n int32) {
	if s.prev[n] >= 0 {
		s.next[s.prev[n]] = s.next[n]
	} else {
		s.head = s.next[n]
	}
	if s.next[n] >= 0 {
		s.prev[s.next[n]] = s.prev[n]
	} else {
		s.tail = s.prev[n]
	}
}

func (s *shard) moveToFront(n int32) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
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
