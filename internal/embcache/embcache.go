// Package embcache implements software caches for embedding-table rows
// and evaluates them against sparse-ID traces. The paper's §VII points
// at exactly this use: "the open-source benchmark can be used to design
// memory systems, intelligent pre-fetching/caching techniques, and
// emerging memory technologies", citing the DRAM-cache-over-NVM design
// of Eisenman et al. [25]. Figure 14's unique-ID fractions bound the
// achievable hit rates; this package measures what LRU/LFU/FIFO
// actually capture and what that means for average gather latency in a
// DRAM+NVM tiered store.
package embcache

import "fmt"

// Policy is a fixed-capacity row cache. Access touches one row ID and
// reports whether it hit; on miss the row is admitted, possibly
// evicting another.
type Policy interface {
	Name() string
	Access(id uint64) bool
	Len() int
}

func checkCapacity(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("embcache: capacity must be positive, got %d", capacity))
	}
}

// replay drives the replacement core (core.go) offline: no row data,
// no generations, and every miss admitted — the textbook policy, where
// the serving cache (Concurrent) admits a full shard's misses lazily.
type replay struct{ core }

func newReplay(policy, capacity int) replay {
	checkCapacity(capacity)
	return replay{newCore(policy, capacity, 1)}
}

// Len implements Policy.
func (r *replay) Len() int { return r.used }

// Access implements Policy.
func (r *replay) Access(id uint64) bool {
	if slot, ok := r.find(id); ok {
		r.touch(slot)
		return true
	}
	r.admit(id)
	return false
}

// LRU is a least-recently-used cache.
type LRU struct{ replay }

// NewLRU returns an LRU cache holding capacity rows.
func NewLRU(capacity int) *LRU { return &LRU{newReplay(polLRU, capacity)} }

// Name implements Policy.
func (*LRU) Name() string { return "LRU" }

// FIFO is a first-in-first-out cache: admission order, no recency
// update on hit.
type FIFO struct{ replay }

// NewFIFO returns a FIFO cache holding capacity rows.
func NewFIFO(capacity int) *FIFO { return &FIFO{newReplay(polFIFO, capacity)} }

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

// LFU is a least-frequently-used cache with O(1) operations via
// frequency buckets; ties within a frequency evict the least recently
// used entry.
type LFU struct {
	capacity int
	items    map[uint64]*lfuNode
	freqs    map[int]*lfuList
	minFreq  int
}

type lfuNode struct {
	id         uint64
	freq       int
	prev, next *lfuNode
}

type lfuList struct {
	head, tail *lfuNode
	size       int
}

// NewLFU returns an LFU cache holding capacity rows.
func NewLFU(capacity int) *LFU {
	checkCapacity(capacity)
	return &LFU{capacity: capacity, items: make(map[uint64]*lfuNode, capacity), freqs: make(map[int]*lfuList)}
}

// Name implements Policy.
func (c *LFU) Name() string { return "LFU" }

// Len implements Policy.
func (c *LFU) Len() int { return len(c.items) }

// Access implements Policy.
func (c *LFU) Access(id uint64) bool {
	if n, ok := c.items[id]; ok {
		c.promote(n)
		return true
	}
	if len(c.items) >= c.capacity {
		c.evict()
	}
	n := &lfuNode{id: id, freq: 1}
	c.items[id] = n
	c.bucket(1).pushFront(n)
	c.minFreq = 1
	return false
}

func (c *LFU) bucket(freq int) *lfuList {
	l, ok := c.freqs[freq]
	if !ok {
		l = &lfuList{}
		c.freqs[freq] = l
	}
	return l
}

func (c *LFU) promote(n *lfuNode) {
	old := c.freqs[n.freq]
	old.remove(n)
	if old.size == 0 {
		delete(c.freqs, n.freq)
		if c.minFreq == n.freq {
			c.minFreq++
		}
	}
	n.freq++
	c.bucket(n.freq).pushFront(n)
}

func (c *LFU) evict() {
	l := c.freqs[c.minFreq]
	for l == nil || l.size == 0 {
		// minFreq can be stale after deletions; advance it.
		c.minFreq++
		l = c.freqs[c.minFreq]
	}
	victim := l.tail
	l.remove(victim)
	if l.size == 0 {
		delete(c.freqs, victim.freq)
	}
	delete(c.items, victim.id)
}

func (l *lfuList) pushFront(n *lfuNode) {
	n.next = l.head
	n.prev = nil
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	l.size++
}

func (l *lfuList) remove(n *lfuNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
	l.size--
}
