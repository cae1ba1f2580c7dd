package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"recsys/internal/embcache"
	"recsys/internal/engine"
	"recsys/internal/nn"
	"recsys/internal/shard"
	"recsys/internal/tensor"
)

// The ladder replays generated requests in this process through the
// public entry point of each layer, one rung per layer, and records a
// span around every call. The rungs run one after another, not nested,
// so a span's parent is the rung that would have called it in the real
// program, and a rung's self time is its median minus the median of
// the rung below. Spans inside the program under test are a later
// change.

const ladderRequests = 256

// span is one timed call. Times are nanoseconds since the ladder
// began; Parent indexes the span list, -1 for a request's root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

// run times f as a span and returns its index. f receives the index so
// it can parent further spans.
func (r *recorder) run(name string, parent, request int, f func(self int)) int {
	self := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Request: request})
	start := time.Since(r.t0)
	f(self)
	end := time.Since(r.t0)
	r.spans[self].StartNS, r.spans[self].EndNS = int64(start), int64(end)
	return self
}

func (r *recorder) durationUS(i int) float64 {
	return float64(r.spans[i].EndNS-r.spans[i].StartNS) / 1e3
}

// medianUS is the median duration of the spans of one name, or 0 when
// there are none.
func (r *recorder) medianUS(name string) float64 {
	var d []float64
	for i, s := range r.spans {
		if s.Name == name {
			d = append(d, r.durationUS(i))
		}
	}
	return median(d)
}

// kindTotals sums an observed forward pass by operator kind; it is the
// bench's model.SpanObserver.
type kindTotals [nn.KindOther + 1]time.Duration

func (k *kindTotals) OpSpan(_ string, kind nn.Kind, d time.Duration) { k[kind] += d }

// gemmShape is one FC layer's GEMM at the request's row count.
type gemmShape struct {
	a, c *tensor.Tensor
	b    *tensor.PackedB
}

// runLadder returns the per-layer metrics the in-process replay
// yields. shardAddrs are the live embshard children, if the workload
// has any.
func runLadder(w workload, in *inputs, shardAddrs []string) (map[string]float64, *recorder, error) {
	opts := engine.DefaultOptions()
	opts.Workers = workers()
	opts.EmbCache.RowsPerTable = w.embCache
	eng, err := engine.NewEngine(opts)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	// Registering attaches the engine's hot-row caches to the twin's SLS
	// ops, so the rungs below see the tables as the server does.
	if err := eng.Register(engine.DefaultModelName, in.twin, engine.ModelOptions{}); err != nil {
		return nil, nil, err
	}
	intraOp := max(runtime.GOMAXPROCS(0)/workers(), 1) // serve's -intra-op default

	twin, cfg := in.twin, in.twin.Config
	var gemms []gemmShape
	flops := 0.0
	for _, mlp := range []*nn.MLP{twin.Bottom, twin.Top} {
		for _, fc := range mlp.Layers {
			gemms = append(gemms, gemmShape{a: tensor.New(w.items, fc.In), b: tensor.PackB(fc.W), c: tensor.New(w.items, fc.Out)})
			flops += 2 * float64(w.items) * float64(fc.In) * float64(fc.Out)
		}
	}
	topIn := tensor.New(w.items, twin.Top.InDim())
	topIn.Fill(0.5)

	rowBytes, idsPerReq := 0.0, 0
	for _, t := range cfg.Tables {
		idsPerReq += w.items * t.Lookups
		rowBytes = float64(t.Dim) * 4
		if w.int8 {
			rowBytes = float64(t.Dim) + 8 // codes plus the row's scale and offset
		}
	}

	var cache *embcache.Concurrent
	cols := cfg.Tables[0].Dim
	if w.embCache > 0 {
		if cache, err = embcache.NewConcurrent(w.embCache, cols, "lru", 0); err != nil {
			return nil, nil, err
		}
	}
	var remote nn.GatherSource
	if len(shardAddrs) > 0 {
		client, err := shard.Dial(shard.Options{Addrs: shardAddrs})
		if err != nil {
			return nil, nil, err
		}
		defer client.Close()
		remote = client.Source(0, cfg.Tables[0].Rows, cols)
	}

	rec := &recorder{t0: time.Now()}
	arena := tensor.NewArena()
	var kinds kindTotals
	var uniqueFrac, lookupNS, insertNS, bodyBytes []float64
	row := make([]float32, cols)
	scores := make([]float32, 0, w.items)
	var failure error

	n := min(ladderRequests, len(in.pool))
	for i := 0; i < n; i++ {
		r := &in.pool[i]
		bodyBytes = append(bodyBytes, float64(len(r.body)))
		rec.run("request", -1, i, func(root int) {
			rec.run("http.decode", root, i, func(int) {
				var rr engine.RankRequest
				dec := json.NewDecoder(bytes.NewReader(r.body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&rr); err != nil {
					failure = err
				}
			})
			rank := rec.run("engine.rank", root, i, func(int) {
				if scores, err = eng.RankInto(context.Background(), "", scores[:0], r.req); err != nil {
					failure = err
				}
			})
			rec.run("http.encode", root, i, func(int) {
				if err := json.NewEncoder(io.Discard).Encode(engine.RankResponse{CTR: scores}); err != nil {
					failure = err
				}
			})
			forward := rec.run("model.forward", rank, i, func(int) {
				arena.Reset()
				twin.ForwardEx(r.req, arena, intraOp)
			})
			rec.run("model.forward.observed", rank, i, func(int) {
				arena.Reset()
				twin.ForwardSpans(r.req, arena, intraOp, &kinds)
			})
			fc := rec.run("nn.fc", forward, i, func(int) {
				arena.Reset()
				twin.Bottom.ForwardEx(r.req.Dense, arena, intraOp)
				twin.Top.ForwardEx(topIn, arena, intraOp)
			})
			rec.run("tensor.gemm", fc, i, func(int) {
				for _, g := range gemms {
					tensor.GemmPacked(g.a, g.b, g.c)
				}
			})
			sls := rec.run("nn.sls", forward, i, func(int) {
				arena.Reset()
				for t, op := range twin.SLS {
					op.ForwardEx(r.req.SparseIDs[t], w.items, arena, intraOp)
				}
			})

			unique, ids64 := 0, []int64(nil)
			for t, ids := range r.req.SparseIDs {
				seen := make(map[int]struct{}, len(ids))
				for _, id := range ids {
					if _, dup := seen[id]; !dup {
						seen[id] = struct{}{}
						if t == 0 {
							ids64 = append(ids64, int64(id))
						}
					}
				}
				unique += len(seen)
			}
			uniqueFrac = append(uniqueFrac, float64(unique)/float64(idsPerReq))

			// The cache and the shard tier are driven with table 0's ID
			// stream: every table has the same shape and distribution.
			if cache != nil {
				gen, ids := cache.Gen(), r.req.SparseIDs[0]
				var misses []int
				s := rec.run("embcache.lookup", sls, i, func(int) {
					for _, id := range ids {
						if !cache.Lookup(gen, uint64(id), row) {
							misses = append(misses, id)
						}
					}
				})
				lookupNS = append(lookupNS, rec.durationUS(s)*1e3/float64(len(ids)))
				if len(misses) > 0 {
					s = rec.run("embcache.insert", sls, i, func(int) {
						for _, id := range misses {
							cache.Insert(gen, uint64(id), row)
						}
					})
					insertNS = append(insertNS, rec.durationUS(s)*1e3/float64(len(misses)))
				}
			}
			if remote != nil {
				dst := tensor.New(len(ids64), cols)
				dstRows := make([]int32, len(ids64))
				for j := range dstRows {
					dstRows[j] = int32(j)
				}
				rec.run("shard.gather", sls, i, func(int) {
					if _, err := remote.BeginGather(ids64, dstRows, dst, time.Time{}).Wait(); err != nil {
						failure = err
					}
				})
			}
		})
		if failure != nil {
			return nil, nil, fmt.Errorf("bench: ladder request %d: %w", i, failure)
		}
	}

	var total time.Duration
	for _, d := range kinds {
		total += d
	}
	share := func(k nn.Kind) float64 { return float64(kinds[k]) / float64(total) }
	gemmUS, slsUS := rec.medianUS("tensor.gemm"), rec.medianUS("nn.sls")
	forwardUS, rankUS := rec.medianUS("model.forward"), rec.medianUS("engine.rank")
	m := map[string]float64{
		"tensor.gemm_us":     gemmUS,
		"tensor.gemm_gflops": flops / (gemmUS * 1e3),
		"nn.fc_us":           rec.medianUS("nn.fc"),
		"nn.sls_us":          slsUS,
		"nn.sls_gbps":        float64(idsPerReq) * rowBytes / (slsUS * 1e3),
		"nn.sls_unique_frac": median(uniqueFrac),
		"model.forward_us":   forwardUS,
		"model.fc_share":     share(nn.KindFC),
		"model.sls_share":    share(nn.KindSLS),
		"model.other_share":  1 - share(nn.KindFC) - share(nn.KindSLS),
		"engine.rank_us":     rankUS,
		"engine.self_us":     rankUS - forwardUS,
		"http.body_kb":       median(bodyBytes) / 1024,
		"http.decode_us":     rec.medianUS("http.decode"),
		"http.encode_us":     rec.medianUS("http.encode"),
	}
	if cache != nil {
		m["embcache.lookup_ns"] = median(lookupNS)
		m["embcache.insert_ns"] = median(insertNS)
	}
	if remote != nil {
		m["shard.gather_us"] = rec.medianUS("shard.gather")
	}
	return m, rec, nil
}

// spanFile is the layout of bench/out/trace-<workload>.json.
type spanFile struct {
	Host     string `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeSpans(root string, w workload, seed uint64, rec *recorder) (string, error) {
	path := filepath.Join(root, "bench", "out", "trace-"+w.name+".json")
	b, err := json.Marshal(spanFile{Host: hostStamp(root, seed), Workload: w.name, Seed: seed, Spans: rec.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
