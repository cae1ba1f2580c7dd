package shard

import (
	"sort"
	"testing"
	"time"

	"recsys/internal/nn"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// measureGatherLatency runs n sequential fan-out gathers through src
// and returns the sorted per-gather wall times.
func measureGatherLatency(t *testing.T, src nn.GatherSource, ids []int64, dstRows []int32, staging *tensor.Tensor, n int) []time.Duration {
	t.Helper()
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := src.BeginGather(ids, dstRows, staging, time.Time{}).Wait(); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	return samples
}

func quantileDur(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestHedgingBoundsTailLatencyUnderSlowShard is the fault-injection
// acceptance test: with one shard injected to stall 10× the healthy
// per-request service time (50ms vs 5ms) on every 4th request, hedged
// requests must keep the cluster p99 within 2× of the healthy-cluster
// p99. A control client with hedging disabled shows the unhedged tail
// blowing far past that bound, so the margin is attributable to
// hedging rather than to slack in the threshold.
func TestHedgingBoundsTailLatencyUnderSlowShard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stall-injection timing test")
	}
	const rows, cols = 4000, 64
	const nReq = 120
	rng := stats.NewRNG(61)
	tab := nn.NewEmbeddingTable("t0", rows, cols, rng)
	mk := func() []nn.RowStore { return []nn.RowStore{nn.NewSLSOp(tab, 16).LocalStore()} }

	// One fan-out request: 256 unique rows hashed over both shards.
	idRNG := stats.NewRNG(9)
	seen := map[int]bool{}
	var ids []int64
	var dstRows []int32
	for len(ids) < 256 {
		id := idRNG.Intn(rows)
		if seen[id] {
			continue
		}
		seen[id] = true
		dstRows = append(dstRows, int32(len(ids)))
		ids = append(ids, int64(id))
	}
	staging := tensor.New(len(ids), cols)

	// HedgeQuantile 0.5: the slow shard answers 3 of 4 requests fast,
	// so its p50 stays in the sub-millisecond buckets and the hedge
	// timer keeps arming early; a high quantile would chase the stall
	// tail and disarm the hedge exactly when it is needed.
	copts := Options{HedgeAfter: time.Millisecond, HedgeQuantile: 0.5}

	// Healthy cluster: every shard serves every gather after the 5ms
	// base stall (a deterministic stand-in for service time, swamping
	// scheduler noise).
	healthyServers, healthyClient := startTier(t, 2, mk, copts)
	for _, s := range healthyServers {
		s.SetStall(5*time.Millisecond, 1)
	}
	healthySrc := healthyClient.Source(0, rows, cols)
	healthy := measureGatherLatency(t, healthySrc, ids, dstRows, staging, nReq)
	healthyP99 := quantileDur(healthy, 0.99)

	// Degraded cluster: shard 0 healthy (5ms per request), shard 1
	// 10×-slow on every 4th request.
	slowServers, slowClient := startTier(t, 2, mk, copts)
	slowServers[0].SetStall(5*time.Millisecond, 1)
	slowServers[1].SetStall(50*time.Millisecond, 4)
	slowSrc := slowClient.Source(0, rows, cols)
	hedged := measureGatherLatency(t, slowSrc, ids, dstRows, staging, nReq)
	hedgedP99 := quantileDur(hedged, 0.99)

	st := slowClient.Stats()
	if st[1].Hedges == 0 {
		t.Fatalf("slow shard triggered no hedges: %+v", st[1])
	}
	if st[1].HedgeWins == 0 {
		t.Fatalf("no hedge ever won against the stalled primary: %+v", st[1])
	}

	// Control: same degraded cluster, hedging disabled.
	unhedgedClient, err := Dial(Options{
		Addrs:      slowClient.opts.Addrs,
		HedgeAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unhedgedClient.Close()
	unhedgedSrc := unhedgedClient.Source(0, rows, cols)
	unhedged := measureGatherLatency(t, unhedgedSrc, ids, dstRows, staging, nReq)
	unhedgedP99 := quantileDur(unhedged, 0.99)

	t.Logf("healthy  p50=%v p99=%v", quantileDur(healthy, 0.5), healthyP99)
	t.Logf("hedged   p50=%v p99=%v (shard1: %d hedges, %d wins, %d cancels)",
		quantileDur(hedged, 0.5), hedgedP99, st[1].Hedges, st[1].HedgeWins, st[1].Cancels)
	t.Logf("unhedged p50=%v p99=%v", quantileDur(unhedged, 0.5), unhedgedP99)

	if hedgedP99 > 2*healthyP99 {
		t.Fatalf("hedged p99 %v exceeds 2× healthy p99 %v", hedgedP99, healthyP99)
	}
	if unhedgedP99 <= 2*healthyP99 {
		t.Fatalf("unhedged control p99 %v did not exceed 2× healthy p99 %v — stall injection ineffective, hedging untested", unhedgedP99, healthyP99)
	}
}
