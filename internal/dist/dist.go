// Package dist models distributed recommendation inference: embedding
// tables sharded across parameter-server nodes, with the dense MLP on a
// serving node that fans lookups out over the network. §VII of the
// paper names this use ("running recommendation models across many
// nodes (distributed inference)"); production RMC2-class models, whose
// tables exceed single-node DRAM comfort, are served exactly this way.
//
// The latency model: the serving node computes the Bottom-MLP while
// the shard fan-out is in flight; each shard pools its tables locally
// (costed by the same performance model as single-node inference) and
// returns batch × pooled vectors; the serving node then runs the
// interaction and Top-MLP.
package dist

import (
	"fmt"
	"sort"

	"recsys/internal/arch"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/perf"
)

// Cluster describes a sharded serving deployment.
type Cluster struct {
	Model   model.Config
	Machine arch.Machine // node type (homogeneous cluster)
	Shards  int          // embedding parameter-server nodes
	Batch   int
	// NetRTTUS is the request/response round-trip per fan-out hop.
	NetRTTUS float64
	// NetBWGBs is the per-link network bandwidth.
	NetBWGBs float64
}

// DefaultNetwork returns typical intra-rack numbers: 25µs RTT, 25Gb/s
// (≈3 GB/s) links.
func DefaultNetwork() (rttUS, bwGBs float64) { return 25, 3 }

// Placement assigns tables to shards.
type Placement struct {
	// ShardTables[s] lists table indices on shard s.
	ShardTables [][]int
	// BytesPerShard is each shard's embedding storage.
	BytesPerShard []int64
}

// PlaceTables distributes tables over shards with longest-processing-
// time-first greedy balancing (largest table to the least-loaded
// shard). It panics if shards is non-positive.
func PlaceTables(cfg model.Config, shards int) Placement {
	if shards <= 0 {
		panic(fmt.Sprintf("dist: shards must be positive, got %d", shards))
	}
	type entry struct {
		idx   int
		bytes int64
	}
	entries := make([]entry, len(cfg.Tables))
	for i, t := range cfg.Tables {
		entries[i] = entry{idx: i, bytes: int64(t.Rows) * int64(t.Dim) * 4}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].bytes > entries[b].bytes })

	p := Placement{
		ShardTables:   make([][]int, shards),
		BytesPerShard: make([]int64, shards),
	}
	for _, e := range entries {
		least := 0
		for s := 1; s < shards; s++ {
			if p.BytesPerShard[s] < p.BytesPerShard[least] {
				least = s
			}
		}
		p.ShardTables[least] = append(p.ShardTables[least], e.idx)
		p.BytesPerShard[least] += e.bytes
	}
	return p
}

// Time is the latency breakdown of one distributed inference.
type Time struct {
	// BottomUS is the serving node's Bottom-MLP time (overlapped with
	// the fan-out).
	BottomUS float64
	// MaxShardUS is the slowest shard's local pooling time.
	MaxShardUS float64
	// NetUS is the fan-out round trip plus response transfer.
	NetUS float64
	// TopUS is the serving node's interaction + Top-MLP time.
	TopUS float64
	// TotalUS = max(BottomUS, MaxShardUS+NetUS) + TopUS.
	TotalUS float64
	// Placement records the table assignment used.
	Placement Placement
}

// Estimate computes the distributed inference latency of the cluster.
func Estimate(c Cluster) Time {
	if err := c.Model.Validate(); err != nil {
		panic(err)
	}
	if c.Batch <= 0 {
		panic("dist: batch must be positive")
	}
	pl := PlaceTables(c.Model, c.Shards)
	ops := c.Model.Ops()

	// Partition the op list: bottom MLP (+activations), per-table SLS,
	// and the tail (concat, interaction, top MLP, sigmoid).
	var bottomOps, tailOps []nn.Op
	slsOps := make(map[int]nn.Op) // table index → op
	slsSeen := 0
	for _, op := range ops {
		switch op.Kind() {
		case nn.KindSLS:
			slsOps[slsSeen] = op
			slsSeen++
		case nn.KindConcat, nn.KindBatchMM:
			tailOps = append(tailOps, op)
		case nn.KindFC, nn.KindActivation:
			if len(tailOps) == 0 && slsSeen == 0 {
				bottomOps = append(bottomOps, op)
			} else {
				tailOps = append(tailOps, op)
			}
		default:
			tailOps = append(tailOps, op)
		}
	}

	ctx := perf.Context{Machine: c.Machine, Batch: c.Batch, Tenants: 1}
	denseFP := perf.Footprint{
		ParamBytes: float64(c.Model.MLPParams()) * 4,
		ActBytes:   float64(c.Model.TopMLPIn()*c.Batch) * 4 * 2,
	}
	_, bottomUS := perf.EstimateOps(bottomOps, denseFP, ctx)
	_, topUS := perf.EstimateOps(tailOps, denseFP, ctx)

	// Each shard pools only its tables, with only its bytes resident.
	var maxShardUS, respBytes float64
	for s := 0; s < c.Shards; s++ {
		var shardOps []nn.Op
		for _, ti := range pl.ShardTables[s] {
			shardOps = append(shardOps, slsOps[ti])
		}
		if len(shardOps) == 0 {
			continue
		}
		fp := perf.Footprint{EmbBytes: float64(pl.BytesPerShard[s])}
		_, us := perf.EstimateOps(shardOps, fp, ctx)
		if us > maxShardUS {
			maxShardUS = us
		}
		// Response: batch × pooled vector per table on this shard.
		var bytes float64
		for _, ti := range pl.ShardTables[s] {
			bytes += float64(c.Batch*c.Model.Tables[ti].Dim) * 4
		}
		if bytes > respBytes {
			respBytes = bytes
		}
	}

	netUS := 0.0
	if c.Shards > 0 && len(c.Model.Tables) > 0 {
		netUS = c.NetRTTUS + respBytes/c.NetBWGBs*1e-3
	}

	t := Time{
		BottomUS:   bottomUS,
		MaxShardUS: maxShardUS,
		NetUS:      netUS,
		TopUS:      topUS,
		Placement:  pl,
	}
	fanout := maxShardUS + netUS
	if bottomUS > fanout {
		t.TotalUS = bottomUS + topUS
	} else {
		t.TotalUS = fanout + topUS
	}
	return t
}

// SingleNodeUS returns the equivalent single-node latency for
// comparison.
func SingleNodeUS(c Cluster) float64 {
	return perf.Estimate(c.Model, perf.Context{Machine: c.Machine, Batch: c.Batch, Tenants: 1}).TotalUS
}
