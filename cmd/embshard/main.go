// Command embshard serves one shard of the scale-out embedding tier:
// the sparse side of a preset model, exposed over internal/shard's
// wire protocol for a serving node started with -emb-shards.
//
//	embshard -listen :7601 -model rmc1 -scale 100
//	embshard -listen :7602 -model rmc1 -scale 100        # second shard
//	serve -model rmc1 -emb-shards host1:7601,host2:7602
//
// Every shard of a tier (and the serving node) must be started with
// the same -model/-scale/-seed so all replicas materialize identical
// table weights; clients route each row to its owning shard by row
// hash, so a shard is only ever asked for its own ~1/n of the rows.
// An "-int8" model suffix serves row-wise int8-quantized tables
// (dequantized on read, amortized by -emb-cache exactly like the
// in-process serving path).
//
// -stall/-stall-every inject a transient per-request stall (every Nth
// gather sleeps) — the fault shape hedged client requests absorb; used
// by the tail-latency experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"recsys/internal/embcache"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/shard"
	"recsys/internal/stats"
)

func main() {
	var (
		listen     = flag.String("listen", ":7601", "listen address")
		preset     = flag.String("model", "rmc1", "preset to serve tables for: rmc1|rmc2|rmc3|ncf, optional -int8 suffix and :scale")
		scale      = flag.Int("scale", 100, "embedding-table shrink factor when -model has no explicit :scale")
		seed       = flag.Uint64("seed", 1, "weight seed; must match the serving node's")
		embCache   = flag.Int("emb-cache", 0, "hot rows cached per table on this shard (0 = off)")
		embPolicy  = flag.String("emb-cache-policy", "lru", "emb-cache eviction policy: "+strings.Join(embcache.Policies(), ", "))
		stall      = flag.Duration("stall", 0, "fault injection: sleep this long before answering every -stall-every'th gather")
		stallEvery = flag.Int("stall-every", 0, "fault injection: stall every Nth gather request (0 = off)")
		rowService = flag.Duration("row-service", 0, "emulated per-row service time for scaling experiments on small hosts (0 = off)")
	)
	flag.Parse()

	stores, desc, err := buildStores(*preset, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := shard.NewServer(stores, shard.ServerOptions{
		CacheRows:   *embCache,
		CachePolicy: *embPolicy,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *stall > 0 && *stallEvery > 0 {
		srv.SetStall(*stall, *stallEvery)
		log.Printf("fault injection: stalling %v every %d requests", *stall, *stallEvery)
	}
	if *rowService > 0 {
		srv.SetRowServiceTime(*rowService)
		log.Printf("emulating %v service time per row", *rowService)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s (%d tables) on %s", desc, len(stores), ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
	}
	srv.Close()
	log.Print("bye")
}

// buildStores materializes the preset's embedding tables (weights
// identical to a serving node built from the same preset/scale/seed)
// and returns their row stores in table order.
func buildStores(spec string, defaultScale int, seed uint64) ([]nn.RowStore, string, error) {
	rest := strings.ToLower(spec)
	scale := defaultScale
	if colon := strings.IndexByte(rest, ':'); colon >= 0 {
		s, err := strconv.Atoi(rest[colon+1:])
		if err != nil || s <= 0 {
			return nil, "", fmt.Errorf("embshard: bad scale in %q", spec)
		}
		scale = s
		rest = rest[:colon]
	}
	// The MLP-quantization suffix is accepted for symmetry with serve's
	// specs; only the table representation matters on a shard.
	base, int8Tables := strings.CutSuffix(rest, "-int8mlp")
	if !int8Tables {
		base, int8Tables = strings.CutSuffix(base, "-int8")
	}
	var cfg model.Config
	switch base {
	case "rmc1":
		cfg = model.RMC1Small()
	case "rmc2":
		cfg = model.RMC2Small()
	case "rmc3":
		cfg = model.RMC3Small()
	case "ncf":
		cfg = model.MLPerfNCF()
	default:
		return nil, "", fmt.Errorf("embshard: unknown preset %q", spec)
	}
	if scale > 1 {
		cfg = cfg.Scaled(scale)
	}
	// Match serve's weight stream exactly: it builds its first -model
	// spec from the seed RNG's first split.
	m, err := model.Build(cfg, stats.NewRNG(seed).Split())
	if err != nil {
		return nil, "", err
	}
	if int8Tables {
		m.QuantizeTables()
	}
	stores := make([]nn.RowStore, len(m.SLS))
	for i, op := range m.SLS {
		stores[i] = op.LocalStore()
	}
	desc := cfg.Name
	if int8Tables {
		desc += "-int8"
	}
	return stores, fmt.Sprintf("%s (scale %d, seed %d)", desc, scale, seed), nil
}
