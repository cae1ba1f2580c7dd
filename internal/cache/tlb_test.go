package cache

import (
	"testing"

	"recsys/internal/stats"
)

func TestTLBConstruction(t *testing.T) {
	tlb := NewTLB(64, 4, Page4K)
	if n := tlb.tlb.sets * tlb.tlb.ways; n != 64 || tlb.pageBits != 12 {
		t.Fatalf("entries=%d page bits=%d", n, tlb.pageBits)
	}
	for _, fn := range []func(){
		func() { NewTLB(0, 4, Page4K) },
		func() { NewTLB(64, 0, Page4K) },
		func() { NewTLB(64, 4, 12345) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTLBHitsSamePage(t *testing.T) {
	tlb := NewTLB(64, 4, Page4K)
	if tlb.Access(0x1000) {
		t.Fatal("cold translation should miss")
	}
	if !tlb.Access(0x1fff) {
		t.Fatal("same-page access should hit")
	}
	if tlb.Access(0x2000) {
		t.Fatal("next page should miss")
	}
	if tlb.accesses != 3 || tlb.Misses() != 2 {
		t.Fatalf("accesses=%d misses=%d", tlb.accesses, tlb.Misses())
	}
}

// TestSLSTLBThrashing reproduces §II-C: random embedding gathers over a
// multi-GB table touch a new 4KB page nearly every lookup, thrashing a
// realistically sized (1536-entry) TLB.
func TestSLSTLBThrashing(t *testing.T) {
	rng := stats.NewRNG(1)
	const tableBytes = 10_000_000 * 128 // 10M rows × 128B
	tlb := NewTLB(1536, 4, Page4K)
	for i := 0; i < 50_000; i++ {
		tlb.Access(uint64(rng.Int63n(tableBytes)))
	}
	if mr := tlb.MissRate(); mr < 0.9 {
		t.Errorf("4KB-page gather TLB miss rate = %.3f, want near 1", mr)
	}
}

// TestHugePagesFixSLSTLB: with 2MB pages the same table needs only
// ~640 translations, which fit the TLB — the production mitigation.
func TestHugePagesFixSLSTLB(t *testing.T) {
	rng := stats.NewRNG(2)
	const tableBytes = 10_000_000 * 128
	tlb := NewTLB(1536, 4, Page2M)
	// Warm up the translations, then measure.
	for i := 0; i < 20_000; i++ {
		tlb.Access(uint64(rng.Int63n(tableBytes)))
	}
	tlb.ResetStats()
	for i := 0; i < 50_000; i++ {
		tlb.Access(uint64(rng.Int63n(tableBytes)))
	}
	if mr := tlb.MissRate(); mr > 0.05 {
		t.Errorf("2MB-page gather TLB miss rate = %.3f, want ~0", mr)
	}
}

// TestFCStreamingTLBFriendly: an FC layer's 1MB weight stream touches
// few pages and stays TLB-resident — why only SLS suffers.
func TestFCStreamingTLBFriendly(t *testing.T) {
	tlb := NewTLB(1536, 4, Page4K)
	const weightBytes = 1 << 20
	for pass := 0; pass < 3; pass++ {
		if pass == 1 {
			tlb.ResetStats()
		}
		for off := 0; off < weightBytes; off += LineBytes {
			tlb.Access(uint64(off))
		}
	}
	if mr := tlb.MissRate(); mr > 0.001 {
		t.Errorf("warm FC stream TLB miss rate = %.4f, want ~0", mr)
	}
}

func TestTLBResetStats(t *testing.T) {
	tlb := NewTLB(16, 4, Page4K)
	tlb.Access(0)
	tlb.ResetStats()
	if tlb.accesses != 0 || tlb.Misses() != 0 || tlb.MissRate() != 0 {
		t.Error("ResetStats incomplete")
	}
	if !tlb.Access(0) {
		t.Error("translation should survive ResetStats")
	}
}
