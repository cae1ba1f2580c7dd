// Package shard is the scale-out embedding gather tier: a row-hash
// partitioner, a compact length-prefixed binary wire protocol over
// TCP, a server that serves rows out of nn.RowStore implementations
// (cmd/embshard), and a client pool that fans per-shard sub-plans out
// concurrently with deadline propagation and hedged requests.
//
// The paper (Table I, §VII) sizes production embedding tables at
// 10s-100s of GB, served by fanning sparse lookups out across nodes
// while dense compute stays local; internal/dist models that split
// analytically, and this package is the runnable counterpart. The
// client plugs in underneath nn.SLSOp's planned gather as a
// GatherSource, so the dedup/sort/hot-row-cache machinery is shared
// with the in-process path and results stay bit-identical to local
// serving (raw-row mode accumulates in the original per-sample ID
// order, independent of shard count). The tier is read-only: a server's
// rows are fixed for its lifetime, so the protocol has no write opcode
// and no coherence traffic.
package shard

// fibMix is the Fibonacci-hashing multiplier (2^64/phi, same constant
// internal/embcache uses for lock-stripe selection): one multiply
// spreads sequential row IDs across shards with no pattern aliasing.
const fibMix = 0x9E3779B97F4A7C15

// ShardOf maps a row ID to its owning shard among n. The mapping is a
// pure function of (id, n): client and server never exchange placement
// metadata, they just agree on the hash.
func ShardOf(id int64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(id) * fibMix >> 32) % uint64(n))
}
