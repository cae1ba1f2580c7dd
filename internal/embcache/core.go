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

// core is the replacement state machine: which row IDs hold one of cap
// slots, and which slot the next admission takes. It is the only
// implementation of lru, fifo and clock in the package and has two
// drivers: a Concurrent lock stripe keeps a row of data per slot and
// admits every admitEvery'th miss once full, and the offline LRU/FIFO
// policies keep no rows and admit every miss. Nothing here allocates
// after newCore.
//
// prev/next/head/tail form the intrusive recency list (slot indices,
// -1 = none) for lru and fifo; ref/hand are the second-chance bits for
// clock.
type core struct {
	policy int
	cap    int
	used   int

	slots map[uint64]int32
	ids   []uint64 // slot → row ID

	prev, next []int32
	head, tail int32
	ref        []bool
	hand       int32

	// admitTick counts misses offered to a full cache; admitMask
	// (admission rate − 1, the rate a power of two) picks the ones that
	// may evict. The cycle starts on an admit, so a lone post-fill miss
	// (and a hot row re-offered within a few misses) still gets in.
	admitTick, admitMask uint64

	evictions int64
}

func newCore(policy, capacity int, admitEvery uint64) core {
	c := core{
		policy: policy, cap: capacity, admitMask: admitEvery - 1,
		slots: make(map[uint64]int32, capacity),
		ids:   make([]uint64, capacity),
		head:  -1, tail: -1,
	}
	if policy == polClock {
		c.ref = make([]bool, capacity)
	} else {
		c.prev = make([]int32, capacity)
		c.next = make([]int32, capacity)
	}
	return c
}

// find returns the slot holding row id.
func (c *core) find(id uint64) (int32, bool) {
	slot, ok := c.slots[id]
	return slot, ok
}

// touch records a hit on slot: lru moves it to the front, clock sets
// its reference bit, fifo keeps admission order.
func (c *core) touch(slot int32) {
	switch c.policy {
	case polLRU:
		if c.head != slot {
			c.unlink(slot)
			c.pushFront(slot)
		}
	case polClock:
		c.ref[slot] = true
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
	if c.policy == polClock {
		c.ref[slot] = false
	} else {
		c.pushFront(slot)
	}
	return slot, true
}

// victim selects and unlinks the slot to evict. lru and fifo evict the
// list tail (fifo never reorders on hit, so its tail is the oldest
// admission); clock sweeps the hand, giving referenced slots a second
// chance.
func (c *core) victim() int32 {
	if c.policy == polClock {
		for {
			h := c.hand
			c.hand++
			if int(c.hand) >= c.cap {
				c.hand = 0
			}
			if c.ref[h] {
				c.ref[h] = false
				continue
			}
			return h
		}
	}
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
