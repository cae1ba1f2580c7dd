package cache

import "fmt"

// TLB simulates a set-associative translation lookaside buffer. §II-C
// notes that embedding-gather cache misses "can be exacerbated by ...
// processor-dependent TLB miss handling": a random gather over a
// multi-GB table touches a new 4KB page almost every lookup, so the
// data TLB misses nearly as often as the cache does. Huge (2MB) pages
// — the standard production mitigation for embedding tables — shrink
// the page working set by 512×.
type TLB struct {
	pageBits uint
	tlb      *Cache
	accesses uint64
}

// Page sizes.
const (
	Page4K = 4 << 10
	Page2M = 2 << 20
)

// NewTLB builds a TLB with the given entry count, associativity, and
// page size (Page4K or Page2M).
func NewTLB(entries, ways, pageSize int) *TLB {
	if entries <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: TLB needs positive entries/ways, got %d/%d", entries, ways))
	}
	var bits uint
	switch pageSize {
	case Page4K:
		bits = 12
	case Page2M:
		bits = 21
	default:
		panic(fmt.Sprintf("cache: unsupported page size %d", pageSize))
	}
	// Reuse the set-associative cache with one "line" per page entry:
	// feed it page numbers shifted up by the line bits so each page is
	// a distinct line.
	return &TLB{
		pageBits: bits,
		tlb:      New("tlb", int64(entries)*LineBytes, ways),
	}
}

// Access translates one byte address, reporting whether the
// translation hit.
func (t *TLB) Access(byteAddr uint64) bool {
	t.accesses++
	page := byteAddr >> t.pageBits
	if t.tlb.Lookup(page) {
		return true
	}
	t.tlb.Insert(page)
	return false
}

// Misses returns the TLB miss count.
func (t *TLB) Misses() uint64 { return t.tlb.Misses() }

// MissRate returns misses per access.
func (t *TLB) MissRate() float64 {
	if t.accesses == 0 {
		return 0
	}
	return float64(t.Misses()) / float64(t.accesses)
}

// ResetStats clears counters, keeping translations resident.
func (t *TLB) ResetStats() {
	t.accesses = 0
	t.tlb.ResetStats()
}
