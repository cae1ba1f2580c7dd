package embcache

import (
	"fmt"
	"strings"
)

// Eviction policies of the core. LFU stays offline-only (embcache.LFU):
// its frequency buckets allocate per access, which the zero-alloc
// serving contract rules out.
const (
	polLRU = iota
	polFIFO
)

// Policies lists the eviction policies NewConcurrent accepts.
func Policies() []string { return []string{"lru", "fifo"} }

func parsePolicy(p string) (int, error) {
	switch strings.ToLower(p) {
	case "", "lru":
		return polLRU, nil
	case "fifo":
		return polFIFO, nil
	default:
		return 0, fmt.Errorf("embcache: unknown policy %q (want %s)", p, strings.Join(Policies(), ", "))
	}
}

// core is the replacement state machine: which row IDs hold one of cap
// slots, and which slot the next admission takes. It is the only
// implementation of lru and fifo in the package and has two
// drivers: a Concurrent lock stripe keeps a row of data per slot and
// admits every admitEvery'th miss once full, and the offline LRU/FIFO
// policies keep no rows and admit every miss. Nothing here allocates
// after newCore.
//
// prev/next/head/tail form the intrusive recency list (slot indices,
// -1 = none).
type core struct {
	policy int
	cap    int
	used   int

	slots map[uint64]int32
	ids   []uint64 // slot → row ID

	prev, next []int32
	head, tail int32

	// admitTick counts misses offered to a full cache; admitMask
	// (admission rate − 1, the rate a power of two) picks the ones that
	// may evict. The cycle starts on an admit, so a lone post-fill miss
	// (and a hot row re-offered within a few misses) still gets in.
	admitTick, admitMask uint64

	evictions int64
}

func newCore(policy, capacity int, admitEvery uint64) core {
	return core{
		policy: policy, cap: capacity, admitMask: admitEvery - 1,
		slots: make(map[uint64]int32, capacity),
		ids:   make([]uint64, capacity),
		prev:  make([]int32, capacity),
		next:  make([]int32, capacity),
		head:  -1, tail: -1,
	}
}

// find returns the slot holding row id.
func (c *core) find(id uint64) (int32, bool) {
	slot, ok := c.slots[id]
	return slot, ok
}

// touch records a hit on slot: lru moves it to the front, fifo keeps
// admission order.
func (c *core) touch(slot int32) {
	if c.policy == polLRU && c.head != slot {
		c.unlink(slot)
		c.pushFront(slot)
	}
}

// admit gives the absent row id a slot: a free one while the cache
// fills, after that the policy's victim's, on the misses the admission
// rate lets through. ok is false when this miss was not admitted.
func (c *core) admit(id uint64) (slot int32, ok bool) {
	if c.used < c.cap {
		slot = int32(c.used)
		c.used++
	} else {
		tick := c.admitTick
		c.admitTick++
		if tick&c.admitMask != 0 {
			return 0, false
		}
		slot = c.victim()
		delete(c.slots, c.ids[slot])
		c.evictions++
	}
	c.ids[slot] = id
	c.slots[id] = slot
	c.pushFront(slot)
	return slot, true
}

// victim selects and unlinks the slot to evict: the list tail (fifo
// never reorders on hit, so its tail is the oldest admission).
func (c *core) victim() int32 {
	v := c.tail
	c.unlink(v)
	return v
}

func (c *core) pushFront(n int32) {
	c.prev[n] = -1
	c.next[n] = c.head
	if c.head >= 0 {
		c.prev[c.head] = n
	}
	c.head = n
	if c.tail < 0 {
		c.tail = n
	}
}

func (c *core) unlink(n int32) {
	if c.prev[n] >= 0 {
		c.next[c.prev[n]] = c.next[n]
	} else {
		c.head = c.next[n]
	}
	if c.next[n] >= 0 {
		c.prev[c.next[n]] = c.prev[n]
	} else {
		c.tail = c.prev[n]
	}
}
