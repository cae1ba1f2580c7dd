package cache

import (
	"fmt"

	"recsys/internal/arch"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hit levels, from fastest to slowest.
const (
	L1 Level = iota
	L2
	L3
	DRAM
)

// CoreStats aggregates per-core access outcomes.
type CoreStats struct {
	Accesses  uint64
	L1Misses  uint64
	L2Misses  uint64
	LLCMisses uint64 // satisfied from DRAM
	BackInval uint64 // private-cache lines shot down by inclusive-LLC evictions
}

// Hierarchy simulates one socket: per-core private L1/L2 and a shared
// LLC, with the machine's inclusive or exclusive policy.
type Hierarchy struct {
	inclusive bool
	cores     int
	l1, l2    []*Cache
	l3        *Cache
	stats     []CoreStats
	// owner maps an LLC line to the core whose private caches may hold
	// it, for back-invalidation. The paper's co-location study runs one
	// single-threaded model per core, so single ownership is exact.
	owner map[uint64]int
}

// NewHierarchy builds the hierarchy for cores cores of machine m.
// It panics if cores is non-positive or exceeds a socket.
func NewHierarchy(m arch.Machine, cores int) *Hierarchy {
	if cores <= 0 || cores > m.CoresPerSocket {
		panic(fmt.Sprintf("cache: %d cores requested on a %d-core %s socket", cores, m.CoresPerSocket, m.Name))
	}
	h := &Hierarchy{
		inclusive: m.L3Inclusive,
		cores:     cores,
		l3:        New(m.Name+"/L3", m.L3.SizeBytes, m.L3.Ways),
		stats:     make([]CoreStats, cores),
		owner:     make(map[uint64]int),
	}
	for i := 0; i < cores; i++ {
		h.l1 = append(h.l1, New(fmt.Sprintf("%s/core%d/L1", m.Name, i), m.L1.SizeBytes, m.L1.Ways))
		h.l2 = append(h.l2, New(fmt.Sprintf("%s/core%d/L2", m.Name, i), m.L2.SizeBytes, m.L2.Ways))
	}
	return h
}

// Access performs one load/store of the line containing byteAddr from
// the given core and returns the level that satisfied it.
func (h *Hierarchy) Access(core int, byteAddr uint64) Level {
	line := LineAddr(byteAddr)
	st := &h.stats[core]
	st.Accesses++

	if h.l1[core].Lookup(line) {
		return L1
	}
	st.L1Misses++
	if h.l2[core].Lookup(line) {
		h.fillL1(core, line)
		return L2
	}
	st.L2Misses++

	if h.inclusive {
		return h.accessInclusive(core, line, st)
	}
	return h.accessExclusive(core, line, st)
}

// accessInclusive: the LLC holds a superset of all private caches.
func (h *Hierarchy) accessInclusive(core int, line uint64, st *CoreStats) Level {
	level := L3
	if !h.l3.Lookup(line) {
		st.LLCMisses++
		level = DRAM
		if victim, evicted := h.l3.Insert(line); evicted {
			// Inclusive property: the victim may not survive in any
			// private cache.
			if owner, ok := h.owner[victim]; ok {
				if h.l2[owner].Invalidate(victim) {
					h.stats[owner].BackInval++
				}
				if h.l1[owner].Invalidate(victim) {
					h.stats[owner].BackInval++
				}
				delete(h.owner, victim)
			}
		}
	}
	h.owner[line] = core
	h.fillL2(core, line)
	h.fillL1(core, line)
	return level
}

// accessExclusive: the LLC is a victim cache for L2 evictions; lines
// move between L2 and LLC rather than being duplicated.
func (h *Hierarchy) accessExclusive(core int, line uint64, st *CoreStats) Level {
	level := L3
	if h.l3.Lookup(line) {
		// Exclusive: promote to the private L2, removing from the LLC.
		h.l3.Invalidate(line)
	} else {
		st.LLCMisses++
		level = DRAM
	}
	h.fillL2(core, line)
	h.fillL1(core, line)
	return level
}

func (h *Hierarchy) fillL1(core int, line uint64) {
	h.l1[core].Insert(line)
}

func (h *Hierarchy) fillL2(core int, line uint64) {
	victim, evicted := h.l2[core].Insert(line)
	if evicted && !h.inclusive {
		// Exclusive: the L2 victim spills into the LLC. Under the
		// inclusive policy the LLC already holds the victim, so a clean
		// eviction needs no action.
		h.l3.Insert(victim)
	}
}

// ResetStats clears per-core and per-level counters, keeping contents.
func (h *Hierarchy) ResetStats() {
	for i := range h.stats {
		h.stats[i] = CoreStats{}
	}
	for i := 0; i < h.cores; i++ {
		h.l1[i].ResetStats()
		h.l2[i].ResetStats()
	}
	h.l3.ResetStats()
}

// MPKI returns core's LLC misses per thousand of the given instruction
// count — the metric of Figure 5 (right).
func (h *Hierarchy) MPKI(core int, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(h.stats[core].LLCMisses) / (float64(instructions) / 1000)
}
