package cache

import (
	"testing"

	"recsys/internal/arch"
	"recsys/internal/stats"
)

func TestHierarchyConstruction(t *testing.T) {
	h := NewHierarchy(arch.Broadwell(), 4)
	if h.cores != 4 || len(h.l1) != 4 || len(h.l2) != 4 {
		t.Fatal("per-core caches wrong")
	}
	for _, fn := range []func(){
		func() { NewHierarchy(arch.Broadwell(), 0) },
		func() { NewHierarchy(arch.Broadwell(), 15) }, // > 14 per socket
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid core count did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestAccessLevels(t *testing.T) {
	h := NewHierarchy(arch.Broadwell(), 1)
	addr := uint64(0x10000)
	if lvl := h.Access(0, addr); lvl != DRAM {
		t.Fatalf("cold access hit %v, want DRAM", lvl)
	}
	if lvl := h.Access(0, addr); lvl != L1 {
		t.Fatalf("warm access hit %v, want L1", lvl)
	}
	// Same line, different byte offset: still L1.
	if lvl := h.Access(0, addr+32); lvl != L1 {
		t.Fatalf("same-line access hit %v, want L1", lvl)
	}
	st := h.stats[0]
	if st.Accesses != 3 || st.LLCMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := NewHierarchy(arch.Broadwell(), 1)
	target := uint64(0)
	h.Access(0, target)
	// Evict the target from L1 (32KB = 512 lines) but not L2 (256KB)
	// by streaming 1024 distinct lines.
	for i := uint64(1); i <= 1024; i++ {
		h.Access(0, i*LineBytes)
	}
	if lvl := h.Access(0, target); lvl != L2 {
		t.Fatalf("access hit %v, want L2", lvl)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	m := arch.Broadwell() // inclusive
	h := NewHierarchy(m, 2)
	// Core 0 loads a line; core 1 then streams enough lines through the
	// shared LLC to evict core 0's line, which must be shot down from
	// core 0's private caches. The streamed range is disjoint from the
	// target so ownership tracking stays single-owner.
	target := uint64(1 << 40)
	h.Access(0, target)
	llcLines := uint64(m.L3.SizeBytes / LineBytes)
	for i := uint64(1); i <= llcLines*3; i++ {
		h.Access(1, i*LineBytes)
	}
	if contains(h.l2[0], LineAddr(target)) || contains(h.l1[0], LineAddr(target)) {
		t.Fatal("inclusive LLC eviction did not back-invalidate private copies")
	}
	if h.stats[0].BackInval == 0 {
		t.Fatal("back-invalidation not recorded")
	}
	// The re-access must go all the way to DRAM.
	if lvl := h.Access(0, target); lvl != DRAM {
		t.Fatalf("re-access hit %v, want DRAM", lvl)
	}
}

func TestExclusiveNoBackInvalidation(t *testing.T) {
	m := arch.Skylake() // exclusive
	h := NewHierarchy(m, 2)
	target := uint64(1 << 40)
	h.Access(0, target)
	// Stream far more than the LLC through core 1.
	llcLines := uint64(m.L3.SizeBytes / LineBytes)
	for i := uint64(1); i <= llcLines*2; i++ {
		h.Access(1, i*LineBytes)
	}
	// Core 0's private copy must survive: exclusive LLC contention does
	// not reach into other cores' L2s.
	if lvl := h.Access(0, target); lvl != L1 {
		t.Fatalf("re-access hit %v, want L1 (private copy must survive)", lvl)
	}
	if h.stats[0].BackInval != 0 {
		t.Fatal("exclusive hierarchy must not back-invalidate")
	}
}

func TestExclusiveVictimCache(t *testing.T) {
	m := arch.Skylake()
	h := NewHierarchy(m, 1)
	target := uint64(0)
	h.Access(0, target)
	// Evict target from L2 (1MB = 16384 lines) by streaming 3× its
	// capacity; the victim must land in the LLC.
	for i := uint64(1); i <= 3*16384; i++ {
		h.Access(0, i*LineBytes)
	}
	if lvl := h.Access(0, target); lvl != L3 {
		t.Fatalf("evicted L2 line hit %v, want L3 (victim cache)", lvl)
	}
}

// TestColocationL2MissGrowth reproduces the mechanism of Takeaway 7:
// with an irregular co-runner, the inclusive Broadwell hierarchy loses
// more private-cache hits than exclusive Skylake.
func TestColocationL2MissGrowth(t *testing.T) {
	type result struct{ solo, coloc float64 }
	run := func(m arch.Machine) result {
		measure := func(withCorunner bool) float64 {
			h := NewHierarchy(m, 2)
			r := stats.NewRNG(7)
			// Core 0: FC-like worker streaming a 192KB weight working set
			// once per "inference" (fits in the private L2 on both
			// machines). Core 1: SLS-like co-runner whose random gathers
			// over 1GB stand in for the aggregate irregular traffic of
			// many co-located recommendation jobs between core 0's
			// weight reuses.
			const weightLines = 3072
			const corunnerPerIter = 700_000
			var misses, accesses uint64
			for iter := 0; iter < 5; iter++ {
				for i := uint64(0); i < weightLines; i++ {
					lvl := h.Access(0, i*LineBytes)
					if iter > 0 { // skip cold misses
						accesses++
						if lvl >= L3 {
							misses++
						}
					}
				}
				if withCorunner {
					for j := 0; j < corunnerPerIter; j++ {
						addr := uint64(1<<33) + uint64(r.Intn(1<<24))*LineBytes
						h.Access(1, addr)
					}
				}
			}
			return float64(misses) / float64(accesses)
		}
		return result{solo: measure(false), coloc: measure(true)}
	}
	bdw := run(arch.Broadwell())
	skl := run(arch.Skylake())
	dBDW := bdw.coloc - bdw.solo
	dSKL := skl.coloc - skl.solo
	if dBDW <= dSKL {
		t.Errorf("inclusive BDW private-miss growth (%.4f) should exceed exclusive SKL (%.4f)", dBDW, dSKL)
	}
}

func TestMPKI(t *testing.T) {
	h := NewHierarchy(arch.Broadwell(), 1)
	for i := uint64(0); i < 1000; i++ {
		h.Access(0, i*LineBytes) // all cold misses
	}
	if got := h.MPKI(0, 1_000_000); got != 1.0 {
		t.Errorf("MPKI = %v, want 1.0", got)
	}
	if h.MPKI(0, 0) != 0 {
		t.Error("MPKI with zero instructions should be 0")
	}
}

func TestResetStats(t *testing.T) {
	h := NewHierarchy(arch.Skylake(), 1)
	h.Access(0, 0)
	h.ResetStats()
	if h.stats[0].Accesses != 0 || h.l3.Misses() != 0 {
		t.Error("ResetStats incomplete")
	}
	// Contents survive: next access hits L1.
	if lvl := h.Access(0, 0); lvl != L1 {
		t.Errorf("contents should survive ResetStats, hit %v", lvl)
	}
}
