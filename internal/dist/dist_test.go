package dist

import (
	"testing"
	"testing/quick"

	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/stats"
)

func cluster(shards, batch int) Cluster {
	rtt, bw := DefaultNetwork()
	return Cluster{
		Model:    model.RMC2Small(),
		Machine:  arch.Broadwell(),
		Shards:   shards,
		Batch:    batch,
		NetRTTUS: rtt,
		NetBWGBs: bw,
	}
}

// imbalance returns max/mean shard storage (1.0 = perfectly balanced).
func imbalance(p Placement) float64 {
	var most, sum int64
	for _, b := range p.BytesPerShard {
		sum += b
		most = max(most, b)
	}
	return float64(most) * float64(len(p.BytesPerShard)) / float64(sum)
}

// speedup returns single-node latency over distributed latency.
func speedup(c Cluster) float64 { return SingleNodeUS(c) / Estimate(c).TotalUS }

func TestPlaceTablesCoversAll(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		shards := 1 + r.Intn(8)
		cfg := model.RMC2Small()
		p := PlaceTables(cfg, shards)
		if len(p.ShardTables) != shards {
			return false
		}
		seen := map[int]bool{}
		for _, ts := range p.ShardTables {
			for _, ti := range ts {
				if seen[ti] {
					return false // duplicate assignment
				}
				seen[ti] = true
			}
		}
		return len(seen) == len(cfg.Tables)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlaceTablesBalanced(t *testing.T) {
	// 32 equal tables over 4 shards: perfect balance.
	p := PlaceTables(model.RMC2Small(), 4)
	if im := imbalance(p); im > 1.01 {
		t.Errorf("imbalance %.3f for equal tables, want ~1", im)
	}
	// Unequal tables still balance reasonably under LPT.
	cfg := model.Config{
		Name: "skewed", Class: model.Custom, DenseIn: 4,
		BottomMLP: []int{8, 4}, TopMLP: []int{4, 1},
		Tables: []model.TableSpec{
			{Rows: 1000, Dim: 32, Lookups: 4},
			{Rows: 500, Dim: 32, Lookups: 4},
			{Rows: 500, Dim: 32, Lookups: 4},
			{Rows: 300, Dim: 32, Lookups: 4},
			{Rows: 200, Dim: 32, Lookups: 4},
			{Rows: 100, Dim: 32, Lookups: 4},
		},
	}
	if im := imbalance(PlaceTables(cfg, 2)); im > 1.2 {
		t.Errorf("LPT imbalance %.3f, want < 1.2", im)
	}
}

func TestPlaceTablesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PlaceTables(model.RMC2Small(), 0)
}

func TestEstimateBreakdown(t *testing.T) {
	ti := Estimate(cluster(4, 16))
	if ti.TotalUS <= 0 || ti.MaxShardUS <= 0 || ti.NetUS <= 0 || ti.TopUS <= 0 {
		t.Fatalf("incomplete breakdown %+v", ti)
	}
	// Total is the overlap formula.
	fanout := ti.MaxShardUS + ti.NetUS
	want := fanout + ti.TopUS
	if ti.BottomUS > fanout {
		want = ti.BottomUS + ti.TopUS
	}
	if diff := ti.TotalUS - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total %.2f != overlap formula %.2f", ti.TotalUS, want)
	}
}

// TestShardingSpeedsUpRMC2: sharding the memory-bound model across
// nodes multiplies aggregate random-access bandwidth, so latency drops
// until the network floor.
func TestShardingSpeedsUpRMC2(t *testing.T) {
	single := SingleNodeUS(cluster(1, 16))
	four := Estimate(cluster(4, 16)).TotalUS
	eight := Estimate(cluster(8, 16)).TotalUS
	if four >= single {
		t.Errorf("4-shard latency %.0fµs should beat single node %.0fµs", four, single)
	}
	if eight >= four {
		t.Errorf("8 shards (%.0fµs) should beat 4 (%.0fµs)", eight, four)
	}
	if s := speedup(cluster(8, 16)); s < 2 {
		t.Errorf("8-shard speedup %.2f, want > 2 for RMC2", s)
	}
}

// TestNetworkFloor: with enough shards, the RTT dominates and more
// shards stop helping.
func TestNetworkFloor(t *testing.T) {
	c16 := Estimate(cluster(16, 16))
	c32 := Estimate(cluster(32, 16))
	if c32.TotalUS < c16.TotalUS*0.75 {
		t.Errorf("32 shards (%.0fµs) should be close to 16 (%.0fµs): RTT floor", c32.TotalUS, c16.TotalUS)
	}
	if c32.NetUS < 25 {
		t.Errorf("network time %.1fµs below one RTT", c32.NetUS)
	}
}

// TestComputeBoundModelGainsLittle: RMC3 is FC-dominated, so sharding
// its two tables barely helps.
func TestComputeBoundModelGainsLittle(t *testing.T) {
	rtt, bw := DefaultNetwork()
	c := Cluster{Model: model.RMC3Small(), Machine: arch.Broadwell(), Shards: 4, Batch: 16, NetRTTUS: rtt, NetBWGBs: bw}
	if s := speedup(c); s > 1.2 {
		t.Errorf("RMC3 sharding speedup %.2f, should be marginal", s)
	}
}

func TestEstimatePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { c := cluster(2, 16); c.Batch = 0; Estimate(c) },
		func() { c := cluster(2, 16); c.Model = model.Config{Name: "bad"}; Estimate(c) },
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
