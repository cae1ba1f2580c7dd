// Package cache simulates the Intel server cache hierarchies of the
// paper's Table II: private set-associative L1/L2 per core, a shared
// LLC per socket, and a DRAM backstop. Two LLC policies are modelled,
// because they drive the co-location results of Figures 9-11:
//
//   - inclusive (Haswell, Broadwell): every line in an L1/L2 is also in
//     the LLC; evicting an LLC line back-invalidates it from the private
//     caches, so co-located tenants thrash each other's L2s.
//   - exclusive/non-inclusive (Skylake): the LLC is a victim cache for
//     L2 evictions; LLC contention does not shoot down private copies.
//
// Addresses are byte addresses; the simulator tracks 64-byte lines.
package cache

import "fmt"

// LineBytes is the cache line size for all simulated machines.
const LineBytes = 64

// lineShift is log2(LineBytes).
const lineShift = 6

// LineAddr converts a byte address to a line address.
func LineAddr(byteAddr uint64) uint64 { return byteAddr >> lineShift }

// Cache is one set-associative cache level with true-LRU replacement.
type Cache struct {
	sets    int
	ways    int
	setMask uint64
	// lines[set] is ordered most-recently-used first.
	lines  [][]uint64
	hits   uint64
	misses uint64
}

// New returns a cache of the given size and associativity. The set
// count is rounded down to a power of two so that indexing is a mask.
// It panics if the geometry yields zero sets.
func New(name string, sizeBytes int64, ways int) *Cache {
	if ways <= 0 {
		panic(fmt.Sprintf("cache: %s has non-positive ways", name))
	}
	sets := int(sizeBytes) / LineBytes / ways
	if sets <= 0 {
		panic(fmt.Sprintf("cache: %s geometry (%dB, %d ways) yields no sets", name, sizeBytes, ways))
	}
	// Round the set count down to a power of two so indexing is a mask,
	// then grow the associativity to preserve the nominal capacity
	// (e.g. Skylake's 27.5MB 11-way LLC becomes 32768 sets × 13 ways).
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	if w := int(sizeBytes) / (sets * LineBytes); w > ways {
		ways = w
	}
	c := &Cache{sets: sets, ways: ways, setMask: uint64(sets - 1)}
	c.lines = make([][]uint64, sets)
	return c
}

func (c *Cache) set(line uint64) int { return int(line & c.setMask) }

// Lookup probes for a line, updating LRU order and hit/miss counters.
func (c *Cache) Lookup(line uint64) bool {
	s := c.lines[c.set(line)]
	for i, l := range s {
		if l == line {
			// Move to MRU position.
			copy(s[1:i+1], s[:i])
			s[0] = line
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Insert places a line at the MRU position. If the set is full, the LRU
// line is evicted and returned with evicted=true. Inserting a line that
// is already present refreshes its LRU position instead.
func (c *Cache) Insert(line uint64) (victim uint64, evicted bool) {
	si := c.set(line)
	s := c.lines[si]
	for i, l := range s {
		if l == line {
			copy(s[1:i+1], s[:i])
			s[0] = line
			return 0, false
		}
	}
	if len(s) < c.ways {
		s = append(s, 0)
		copy(s[1:], s[:len(s)-1])
		s[0] = line
		c.lines[si] = s
		return 0, false
	}
	victim = s[len(s)-1]
	copy(s[1:], s[:len(s)-1])
	s[0] = line
	return victim, true
}

// Invalidate removes a line if present, reporting whether it was.
func (c *Cache) Invalidate(line uint64) bool {
	si := c.set(line)
	s := c.lines[si]
	for i, l := range s {
		if l == line {
			c.lines[si] = append(s[:i], s[i+1:]...)
			return true
		}
	}
	return false
}

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// ResetStats zeroes the hit/miss counters without flushing contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }
