package engine

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/shard"
	"recsys/internal/stats"
)

// buildShardModel materializes cfg with a fixed seed — the weight
// stream every replica of a tier (serving node and shard servers) must
// share for remote gathers to be bit-identical to local ones.
func buildShardModel(t *testing.T, cfg model.Config, seed uint64, int8Tables bool) *model.Model {
	t.Helper()
	m, err := model.Build(cfg, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if int8Tables {
		m.QuantizeTables()
	}
	return m
}

// startEmbTier starts n loopback shard servers, each serving a fresh
// replica of cfg's tables, and returns a connected client. Everything
// is torn down via t.Cleanup.
func startEmbTier(t *testing.T, cfg model.Config, seed uint64, int8Tables bool, n int, copts shard.Options) ([]*shard.Server, *shard.Client) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*shard.Server, n)
	for i := 0; i < n; i++ {
		m := buildShardModel(t, cfg, seed, int8Tables)
		stores := make([]nn.RowStore, len(m.SLS))
		for ti, op := range m.SLS {
			stores[ti] = op.LocalStore()
		}
		srv, err := shard.NewServer(stores)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		servers[i] = srv
		addrs[i] = ln.Addr().String()
		t.Cleanup(func() { srv.Close() })
	}
	copts.Addrs = addrs
	c, err := shard.Dial(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return servers, c
}

func shardTestOptions() Options {
	return Options{
		Workers:        2,
		QueueDepth:     64,
		MaxBatch:       8,
		MaxWait:        time.Millisecond,
		IntraOpWorkers: 1,
		EmbCache:       EmbCacheOptions{RowsPerTable: 128},
	}
}

// TestEngineRemoteShardsBitIdentical is the end-to-end acceptance
// check: Rank through an engine whose embedding gathers fan out to a
// loopback 2-shard tier returns bit-for-bit the scores of a
// single-process engine serving the same weights — for fp32 and int8
// tables. Batch formation may coalesce requests differently in the two
// engines; bit-identity must hold anyway because both the merge and
// the remote gather preserve per-sample accumulation order.
func TestEngineRemoteShardsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		int8 bool
	}{{"fp32", false}, {"int8", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := model.RMC1Small().Scaled(100)
			const seed = 7

			localEng, err := NewEngine(shardTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer localEng.Close()
			if err := localEng.Register("m", buildShardModel(t, cfg, seed, tc.int8), ModelOptions{}); err != nil {
				t.Fatal(err)
			}

			_, client := startEmbTier(t, cfg, seed, tc.int8, 2, shard.Options{})
			remoteEng, err := NewEngine(shardTestOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer remoteEng.Close()
			if err := remoteEng.Register("m", buildShardModel(t, cfg, seed, tc.int8), ModelOptions{EmbShards: client}); err != nil {
				t.Fatal(err)
			}

			reqRNG := stats.NewRNG(91)
			ctx := context.Background()
			for pass := 0; pass < 6; pass++ {
				req := model.NewRandomRequest(cfg, 3, reqRNG)
				want, err := localEng.Rank(ctx, "m", req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := remoteEng.Rank(ctx, "m", req)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("pass %d: %d scores, want %d", pass, len(got), len(want))
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("pass %d score %d: remote %v != local %v", pass, i, got[i], want[i])
					}
				}
			}

			// The remote tier's client counters must be visible in the
			// Prometheus exposition, labelled per shard.
			var sb strings.Builder
			remoteEng.WriteMetrics(&sb)
			exp := sb.String()
			for _, family := range []string{"recsys_shard_requests_total", "recsys_shard_hedges_total", "recsys_shard_latency_seconds"} {
				if !strings.Contains(exp, family) {
					t.Errorf("metrics exposition missing %s", family)
				}
			}
		})
	}
}

// TestEngineDeadShardUnavailable: killing a shard makes Rank fail with
// the typed shard.ErrUnavailable (wrapped in ErrInference by the
// executor's recover), which the HTTP front-end maps to 503 — a
// dependency outage, not an internal fault.
func TestEngineDeadShardUnavailable(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	const seed = 7
	servers, client := startEmbTier(t, cfg, seed, false, 2, shard.Options{
		DialTimeout:    200 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
	})
	eng, err := NewEngine(shardTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("m", buildShardModel(t, cfg, seed, false), ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}

	req := model.NewRandomRequest(cfg, 2, stats.NewRNG(5))
	if _, err := eng.Rank(context.Background(), "m", req); err != nil {
		t.Fatalf("healthy tier: %v", err)
	}

	servers[1].Close()
	_, err = eng.Rank(context.Background(), "m", req)
	if err == nil {
		t.Fatal("Rank succeeded against a dead shard")
	}
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("Rank error %v does not wrap shard.ErrUnavailable", err)
	}
	if !errors.Is(err, ErrInference) {
		t.Fatalf("Rank error %v does not wrap ErrInference", err)
	}
	if got := rankStatus(err); got != http.StatusServiceUnavailable {
		t.Fatalf("rankStatus = %d, want 503", got)
	}
}

// TestEngineSwapHammerWithRemoteShards drives hot swaps against
// in-flight Rank traffic over a remote tier with the row cache on — the
// swap's publish racing cached gathers through caches that outlive it.
// Run under -race by the tier-1 recipe; the assertions here are
// liveness and score sanity, the race detector carries the rest.
func TestEngineSwapHammerWithRemoteShards(t *testing.T) {
	cfg := model.RMC1Small().Scaled(100)
	const seed = 7
	_, client := startEmbTier(t, cfg, seed, false, 2, shard.Options{})
	eng, err := NewEngine(shardTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Register("m", buildShardModel(t, cfg, seed, false), ModelOptions{EmbShards: client}); err != nil {
		t.Fatal(err)
	}

	const (
		rankers  = 2
		passes   = 40
		swapEach = 7
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Swapper: replace the model's dense weights in place while the
	// tier keeps serving the same tables.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := buildShardModel(t, cfg, uint64(100+i), false)
			if err := eng.Swap("m", next); err != nil {
				t.Errorf("Swap: %v", err)
				return
			}
			time.Sleep(time.Duration(swapEach) * time.Millisecond)
		}
	}()

	var rwg sync.WaitGroup
	for g := 0; g < rankers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			rng := stats.NewRNG(uint64(500 + g))
			ctx := context.Background()
			for p := 0; p < passes; p++ {
				req := model.NewRandomRequest(cfg, 2, rng)
				ctr, err := eng.Rank(ctx, "m", req)
				if err != nil {
					t.Errorf("ranker %d pass %d: %v", g, p, err)
					return
				}
				for _, v := range ctr {
					if v <= 0 || v >= 1 || v != v {
						t.Errorf("ranker %d pass %d: score %v out of (0,1)", g, p, v)
						return
					}
				}
			}
		}(g)
	}
	rwg.Wait()
	close(stop)
	wg.Wait()
}
