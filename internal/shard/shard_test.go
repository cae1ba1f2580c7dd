package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"recsys/internal/embcache"
	"recsys/internal/nn"
	"recsys/internal/stats"
)

// startTier spins up n loopback shard servers, each serving the stores
// built by mkStores (called once per server, so servers that take row
// updates own their tables and their per-table locks protect them),
// plus a client pool over the tier.
func startTier(t testing.TB, n int, mkStores func() []nn.RowStore, copts Options) ([]*Server, *Client) {
	t.Helper()
	servers := make([]*Server, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(mkStores())
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		servers = append(servers, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	copts.Addrs = addrs
	c, err := Dial(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, s := range servers {
			s.Close()
		}
	})
	return servers, c
}

func randomIDs(rng *stats.RNG, n, rows int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(rows)
	}
	return ids
}

func tensorsEqualBits(t *testing.T, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: %x, want %x (%g vs %g)",
				i, math.Float32bits(got[i]), math.Float32bits(want[i]), got[i], want[i])
		}
	}
}

func TestShardOfSpread(t *testing.T) {
	const n = 4
	var counts [n]int
	for id := int64(0); id < 100_000; id++ {
		s := ShardOf(id, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 15_000 || c > 35_000 {
			t.Fatalf("shard %d owns %d of 100000 rows — partitioner badly skewed: %v", s, c, counts)
		}
	}
	if got := ShardOf(12345, 1); got != 0 {
		t.Fatalf("single-shard ShardOf = %d, want 0", got)
	}
}

func TestWireRejectsTruncatedAndOversized(t *testing.T) {
	if _, err := decodeResp([]byte{wireVersion}, 1); err == nil {
		t.Fatal("decodeResp accepted a truncated payload")
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil); err == nil {
		t.Fatal("readFrame accepted an oversized length prefix")
	}
	req := appendRowsReq(nil, 7, 0, 0, []uint32{1, 2, 3})
	if got := reqIDOf(req); got != 7 {
		t.Fatalf("reqIDOf = %d, want 7", got)
	}
}

// TestGatherBitIdenticalAcrossShardCounts is the tier's core contract:
// an SLSOp reading through the remote tier produces bit-identical
// output to the in-process gather, for fp32 and int8 tables, at every
// shard count (raw-row mode accumulates client-side in per-sample ID
// order, so shard count cannot perturb summation order).
func TestGatherBitIdenticalAcrossShardCounts(t *testing.T) {
	for _, int8T := range []bool{false, true} {
		rng := stats.NewRNG(5)
		tab0 := nn.NewEmbeddingTable("t0", 5000, 64, rng)
		tab1 := nn.NewEmbeddingTable("t1", 1200, 32, rng)
		var q0, q1 *nn.QuantizedTable
		if int8T {
			q0, q1 = nn.Quantize(tab0), nn.Quantize(tab1)
		}
		mk := func() []nn.RowStore {
			a, b := nn.NewSLSOp(tab0, 30), nn.NewSLSOp(tab1, 8)
			a.Quant, b.Quant = q0, q1
			return []nn.RowStore{a.LocalStore(), b.LocalStore()}
		}
		local0, local1 := nn.NewSLSOp(tab0, 30), nn.NewSLSOp(tab1, 8)
		local0.Quant, local1.Quant = q0, q1
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("int8=%v/shards=%d", int8T, n), func(t *testing.T) {
				_, c := startTier(t, n, mk, Options{})
				remote0, remote1 := nn.NewSLSOp(tab0, 30), nn.NewSLSOp(tab1, 8)
				remote0.SetRowStore(c.Source(0, 5000, 64))
				remote1.SetRowStore(c.Source(1, 1200, 32))
				if !remote0.Async() || !remote1.Async() {
					t.Fatal("remote op did not switch to the async gather path")
				}
				idRNG := stats.NewRNG(99)
				const batch = 32
				ids0 := randomIDs(idRNG, batch*30, 5000)
				ids1 := randomIDs(idRNG, batch*8, 1200)
				for pass := 0; pass < 3; pass++ {
					got := remote0.ForwardEx(ids0, batch, nil, 0)
					want := local0.ForwardEx(ids0, batch, nil, 0)
					tensorsEqualBits(t, got.Data(), want.Data())
					got = remote1.ForwardEx(ids1, batch, nil, 0)
					want = local1.ForwardEx(ids1, batch, nil, 0)
					tensorsEqualBits(t, got.Data(), want.Data())
				}
			})
		}
	}
}

// TestGatherWithRowCacheHitsAndStaysIdentical checks the hot-row cache
// sits correctly above the remote store: repeated passes stay
// bit-identical while the second pass is served mostly from cache.
func TestGatherWithRowCacheHitsAndStaysIdentical(t *testing.T) {
	rng := stats.NewRNG(17)
	tab := nn.NewEmbeddingTable("t0", 2000, 64, rng)
	mk := func() []nn.RowStore { return []nn.RowStore{nn.NewSLSOp(tab, 20).LocalStore()} }
	_, c := startTier(t, 2, mk, Options{})
	local := nn.NewSLSOp(tab, 20)
	remote := nn.NewSLSOp(tab, 20)
	remote.SetRowStore(c.Source(0, 2000, 64))
	cache, err := embcache.NewConcurrent(4096, 64, "lru", 0)
	if err != nil {
		t.Fatal(err)
	}
	remote.SetRowCache(cache)
	idRNG := stats.NewRNG(3)
	const batch = 16
	ids := randomIDs(idRNG, batch*20, 2000)
	for pass := 0; pass < 3; pass++ {
		got := remote.ForwardEx(ids, batch, nil, 1)
		want := local.ForwardEx(ids, batch, nil, 1)
		tensorsEqualBits(t, got.Data(), want.Data())
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("row cache recorded no hits across repeated identical passes: %+v", st)
	}
}

// TestGenInvalidationAcrossRPC covers the generation-token protocol:
// after a server-side sparse row update, the client observes the gen
// advance in the next gather's responses, drops its hot-row cache, and
// the pass after that serves the updated values.
func TestGenInvalidationAcrossRPC(t *testing.T) {
	const rows, cols, lookups = 3000, 64, 25
	mk := func() []nn.RowStore {
		rng := stats.NewRNG(21)
		return []nn.RowStore{nn.NewSLSOp(nn.NewEmbeddingTable("t0", rows, cols, rng), lookups).LocalStore()}
	}
	servers, c := startTier(t, 2, mk, Options{})
	localRNG := stats.NewRNG(21)
	localTab := nn.NewEmbeddingTable("t0", rows, cols, localRNG)
	local := nn.NewSLSOp(localTab, lookups)
	remote := nn.NewSLSOp(localTab, lookups)
	remote.SetRowStore(c.Source(0, rows, cols))
	cache, err := embcache.NewConcurrent(256, cols, "lru", 0)
	if err != nil {
		t.Fatal(err)
	}
	remote.SetRowCache(cache)

	idRNG := stats.NewRNG(8)
	const batch = 24
	ids := randomIDs(idRNG, batch*lookups, rows)
	got := remote.ForwardEx(ids, batch, nil, 1)
	tensorsEqualBits(t, got.Data(), local.ForwardEx(ids, batch, nil, 1).Data())

	// Trainer sparse update: rewrite the rows the batch actually uses,
	// on every server (each holds the full table; only the owning shard
	// is consulted per row) and on the local reference.
	newRow := make([]float32, cols)
	for _, id := range ids[:2*lookups] {
		for j := range newRow {
			newRow[j] = float32(id) + float32(j)*0.25
		}
		for _, srv := range servers {
			if err := srv.UpdateRow(0, int64(id), newRow); err != nil {
				t.Fatal(err)
			}
		}
		local.LocalStore().(nn.RowWriter).WriteRow(int64(id), newRow)
	}

	// The first pass after the update discovers the gen change at Wait
	// time — too late for rows it already took from its own cache, the
	// same one-pass window in-process invalidation has. The pass after
	// that runs against the dropped cache and must be fully fresh.
	remote.ForwardEx(ids, batch, nil, 1)
	got = remote.ForwardEx(ids, batch, nil, 1)
	tensorsEqualBits(t, got.Data(), local.ForwardEx(ids, batch, nil, 1).Data())
}

// TestDeadShardSurfacesErrUnavailable: a dead shard must fail the
// forward with the tier's typed error (the engine maps it to 503), not
// hang or return partial sums.
func TestDeadShardSurfacesErrUnavailable(t *testing.T) {
	rng := stats.NewRNG(31)
	tab := nn.NewEmbeddingTable("t0", 4000, 32, rng)
	mk := func() []nn.RowStore { return []nn.RowStore{nn.NewSLSOp(tab, 16).LocalStore()} }
	servers, c := startTier(t, 2, mk, Options{
		DialTimeout:    200 * time.Millisecond,
		RequestTimeout: time.Second,
	})
	remote := nn.NewSLSOp(tab, 16)
	remote.SetRowStore(c.Source(0, 4000, 32))
	ids := randomIDs(stats.NewRNG(1), 32*16, 4000)
	if out := remote.ForwardEx(ids, 32, nil, 1); out == nil {
		t.Fatal("healthy tier returned nil")
	}
	servers[1].Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("forward against a dead shard did not fail")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrUnavailable) {
			t.Fatalf("panic value %v, want an error wrapping ErrUnavailable", r)
		}
	}()
	remote.ForwardEx(ids, 32, nil, 1)
}

// TestRemoteUpdateRaceHammer runs concurrent forwards against
// concurrent server-side row updates and generation bumps — the
// -race-detector coverage for the generation protocol end to end
// (server per-table lock, client lastGen swaps, cache invalidation).
func TestRemoteUpdateRaceHammer(t *testing.T) {
	const rows, cols, lookups = 1000, 32, 10
	mk := func() []nn.RowStore {
		rng := stats.NewRNG(55)
		tab := nn.NewEmbeddingTable("t0", rows, cols, rng)
		op := nn.NewSLSOp(tab, lookups)
		op.Quant = nn.Quantize(tab) // exercise WriteRow's re-quantization
		return []nn.RowStore{op.LocalStore()}
	}
	servers, c := startTier(t, 2, mk, Options{})
	mkRemote := func() *nn.SLSOp {
		rng := stats.NewRNG(55)
		tab := nn.NewEmbeddingTable("t0", rows, cols, rng)
		op := nn.NewSLSOp(tab, lookups)
		op.SetRowStore(c.Source(0, rows, cols))
		cache, err := embcache.NewConcurrent(64, cols, "lru", 0)
		if err != nil {
			t.Fatal(err)
		}
		op.SetRowCache(cache)
		return op
	}
	passes := 120
	if testing.Short() {
		passes = 30
	}
	done := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		rng := stats.NewRNG(77)
		row := make([]float32, cols)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			id := int64(rng.Intn(rows))
			for j := range row {
				row[j] = float32(i + j)
			}
			for _, srv := range servers {
				if err := srv.UpdateRow(0, id, row); err != nil {
					t.Error(err)
					return
				}
			}
			if i%17 == 0 {
				servers[0].tables[0].gen.Add(1) // an out-of-band table mutation
			}
		}
	}()
	var fwd sync.WaitGroup
	for g := 0; g < 2; g++ {
		fwd.Add(1)
		go func(seed uint64) {
			defer fwd.Done()
			op := mkRemote()
			rng := stats.NewRNG(seed)
			for p := 0; p < passes; p++ {
				ids := randomIDs(rng, 8*lookups, rows)
				op.ForwardEx(ids, 8, nil, 1)
			}
		}(uint64(g) + 100)
	}
	fwd.Wait()
	close(done)
	hammer.Wait()
}
