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
// table weights (the spec grammar and the weight-stream rule are in
// DESIGN.md "Bring-up"); clients route each row to its owning shard by
// row hash, so a shard is only ever asked for its own ~1/n of the rows.
// An "-int8" spec serves row-wise int8-quantized tables, dequantized
// on read. A shard keeps no row cache of its own: its rows are local to
// it; the cache that saves wire bytes is the serving node's -emb-cache.
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
	"syscall"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/shard"
)

func main() {
	var (
		listen     = flag.String("listen", ":7601", "listen address")
		preset     = flag.String("model", "rmc1", "tables to serve, as the serving node's -model names them: "+model.SingleSpecUsage)
		scale      = flag.Int("scale", 100, "embedding-table shrink factor when -model has no explicit :scale")
		seed       = flag.Uint64("seed", 1, "weight seed; must match the serving node's")
		stall      = flag.Duration("stall", 0, "fault injection: sleep this long before answering every -stall-every'th gather")
		stallEvery = flag.Int("stall-every", 0, "fault injection: stall every Nth gather request (0 = off)")
		rowService = flag.Duration("row-service", 0, "emulated per-row service time for scaling experiments on small hosts (0 = off)")
	)
	flag.Parse()

	stores, desc, err := buildStores(*preset, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := shard.NewServer(stores)
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

// buildStores materializes the spec's embedding tables, from the weight
// stream a serving node given the same spec and seed draws its first
// model from, and returns their row stores in table order.
func buildStores(spec string, defaultScale int, seed uint64) ([]nn.RowStore, string, error) {
	sp, err := model.ParseSingleSpec(spec, defaultScale)
	if err != nil {
		return nil, "", err
	}
	models, err := model.BuildSpecs([]model.Spec{sp}, seed)
	if err != nil {
		return nil, "", err
	}
	m := models[0]
	stores := make([]nn.RowStore, len(m.SLS))
	for i, op := range m.SLS {
		stores[i] = op.LocalStore()
	}
	desc := m.Config.Name
	if sp.Int8Tables {
		desc += "-int8"
	}
	return stores, fmt.Sprintf("%s (scale %d, seed %d)", desc, sp.Scale, seed), nil
}
