package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/embcache"
	"recsys/internal/nn"
	"recsys/internal/stats"
)

// startTier spins up n loopback shard servers, each serving the stores
// built by mkStores (called once per server), plus a client pool over
// the tier.
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

// TestConcurrentClientsReadOneTable is the -race coverage of the
// server's lock-free read path: four clients, each with its own
// connection pool, gather overlapping rows of one int8 table on one
// server at once, and every pass is bit-identical to the local gather.
func TestConcurrentClientsReadOneTable(t *testing.T) {
	const rows, cols, lookups, hot = 1000, 32, 10, 64
	tab := nn.NewEmbeddingTable("t0", rows, cols, stats.NewRNG(55))
	local := nn.NewSLSOp(tab, lookups)
	local.Quant = nn.Quantize(tab)
	srv, err := NewServer([]nn.RowStore{local.LocalStore()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	passes := 60
	if testing.Short() {
		passes = 15
	}
	const clients, batch = 4, 8
	// Every client draws from the same hot rows, so their requests
	// overlap; references are computed before any client starts.
	ids := make([][][]int, clients)
	want := make([][][]float32, clients)
	for g := range ids {
		rng := stats.NewRNG(uint64(100 + g))
		for p := 0; p < passes; p++ {
			pass := randomIDs(rng, batch*lookups, hot)
			ids[g] = append(ids[g], pass)
			want[g] = append(want[g], append([]float32(nil), local.ForwardEx(pass, batch, nil, 1).Data()...))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c, err := Dial(Options{Addrs: []string{ln.Addr().String()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		remote := nn.NewSLSOp(tab, lookups)
		remote.SetRowStore(c.Source(0, rows, cols))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p, pass := range ids[g] {
				got := remote.ForwardEx(pass, batch, nil, 1).Data()
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[g][p][i]) {
						t.Errorf("client %d pass %d element %d: %g, want %g", g, p, i, got[i], want[g][p][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// appendV1RowsResp encodes a one-table OK gather response the way
// version 1 of the protocol did, with the u64 generation token between
// tableIdx and cols: the frame a server from before the version bump
// sends.
func appendV1RowsResp(b []byte, reqID, table uint32, gen uint64, cols, nRows int) []byte {
	b = append(b, 1, statusOK)
	b = putU32(b, reqID)
	b = putU16(b, 1)
	b = putU32(b, table)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = putU16(b, uint16(cols))
	b = putU32(b, uint32(nRows))
	return append(b, make([]byte, nRows*cols*4)...)
}

// TestMixedVersionsFailClosed: across a deploy that mixes protocol
// versions, neither side parses the other's frames. A client dialing a
// version-1 server fails at Dial with an error naming the version,
// decodeResp refuses a version-1 gather response instead of reading
// its gen field as cols and nRows, and a version-1 request to this
// server is answered statusBadRequest.
func TestMixedVersionsFailClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br, bw := bufio.NewReader(c), bufio.NewWriter(c)
				for {
					req, err := readFrame(br, nil)
					if err != nil || len(req) < 6 {
						return
					}
					resp := append([]byte{1, statusOK}, req[2:6]...) // v1 ping: no tables
					if writeFrame(bw, putU16(resp, 0)) != nil || bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := Dial(Options{Addrs: []string{ln.Addr().String()}, DialTimeout: time.Second})
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a version-1 server")
	}
	if !strings.Contains(err.Error(), "wire version 1") {
		t.Fatalf("Dial error %q does not name the peer's wire version", err)
	}

	if tr, err := decodeResp(appendV1RowsResp(nil, 9, 0, 7, 8, 2), 9); err == nil || !strings.Contains(err.Error(), "wire version 1") {
		t.Fatalf("version-1 gather response decoded as %+v, %v", tr, err)
	}

	srv, _ := newWireServer(t, 8, 8)
	req := appendRowsReq(nil, 10, 0, 0, []uint32{1, 2})
	req[0] = 1
	out := srv.handle(req, nil, make([]float32, 8))
	if out[0] != wireVersion || out[1] != statusBadRequest {
		t.Fatalf("version-1 request answered version %d status %d, want version %d statusBadRequest", out[0], out[1], wireVersion)
	}
}
