// Command serve runs recommendation models as an HTTP ranking service
// using the concurrent inference engine (model registry, per-model
// batching, shared worker pool).
//
//	serve -checkpoint model.ckpt -addr :8080
//	serve -model rmc1 -scale 100                # a scaled Table I preset
//	serve -model filter=rmc1:500@2 -model ranker=rmc3:500
//
// Repeating -model co-locates several models in one engine (the
// heterogeneous-serving scenario of the paper's §VI); the first is the
// default target of POST /rank. The spec grammar, and how the flags
// below are wired into one stack, are in DESIGN.md "Bring-up": main
// fills a stack.Config from the flags, stack.Start brings it up, and
// what is left here is the listener.
//
// Endpoints: POST /rank, POST /rank/{model}, GET /stats,
// GET /stats/{model}, GET /metrics, GET /trace/{model}, GET /models,
// GET /healthz.
//
// -timeout sets a per-request deadline: the engine bounds its
// batch-forming waits by it and sheds expired requests before running
// them (HTTP 408; counted in GET /stats/{model} as "sheds").
//
// -trace N retains each model's N slowest and N most recent request
// traces (validate / queue-wait / batch-form / execute stages plus
// per-operator spans), served as JSON by GET /trace/{model}. -pprof
// additionally mounts net/http/pprof under /debug/pprof/.
//
// -emb-cache N, with -emb-shards, puts a read-through LRU hot-row cache
// of N rows per embedding table in front of the shard tier; hit/miss/
// eviction counters appear in GET /stats and /metrics. Without
// -emb-shards the rows are in this process and are read in place: the
// flag is accepted, attaches nothing, and a start-up log line says so.
//
// -emb-shards host:port,... fans embedding gathers out to a remote
// sharded tier (cmd/embshard processes), overlapping the Bottom-MLP
// with the in-flight fetch and hedging slow sub-requests. Every shard
// must be started with the same preset/scale/seed as the serving node.
// Single-model only: the tier serves one model's tables.
//
// -sla sets a p99 latency target and starts the scheduling observer:
// every model's windowed tail latency is estimated on a control-loop
// cadence and exported as recsys_sched_* gauges in GET /metrics.
// Adding -adapt closes the loop — the controller hill-climbs each
// model's MaxBatch live against the target (shrinking the
// batch when p99 breaches the SLA, growing it when there is headroom),
// and logs a per-model summary at shutdown. -adapt-interval sets the
// control period.
//
// -split N splits requests with more than N samples into near-equal
// chunks executed in parallel across the worker pool, with the scores
// merged back in order (bit-identical to the unsplit pass) — the
// DeepRecSys query-splitting lever for large candidate sets.
//
// -online starts the continuous train→quantize→swap loop on the
// default model: served traffic is labeled (synthetic click feedback)
// into a replay buffer, a background trainer fits an fp32 twin, and
// every -online-interval a candidate snapshot is re-quantized to match
// the serving model, gated on held-out loss (rolling back on a 5%
// regression), and hot-swapped in without dropping traffic; the
// training knobs are the online* constants below. -online-ab N
// publishes each candidate as a weighted canary instead — N% of POST
// /rank traffic routes to <model>-next until the next cycle promotes
// it. Progress is exported as recsys_online_* families in GET /metrics.
//
// -watch D polls the -checkpoint file every D and hot-swaps the serving
// model whenever the file changes — the file-based half of the
// continuous-training pipeline (cmd/train -snapshot-every writes, serve
// -watch picks up).
//
// On SIGINT/SIGTERM, serve stops accepting connections, waits up to
// -drain for in-flight requests, then drains the engine and exits.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"recsys/internal/model"
	"recsys/internal/stack"
)

// modelSpecs collects repeated -model flags.
type modelSpecs []string

func (s *modelSpecs) String() string { return strings.Join(*s, ",") }

func (s *modelSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// The online loop's training knobs: steps of a batch (samples) per
// cycle at a learning rate, drawn from a click replay buffer (samples),
// and the held-out set the quality gate scores every candidate on
// (samples).
const (
	onlineSteps   = 8
	onlineBatch   = 32
	onlineLR      = 0.01
	onlineBuffer  = 1 << 16
	onlineHoldout = 512
)

func main() {
	var specs modelSpecs
	var cfg stack.Config
	flag.StringVar(&cfg.Checkpoint, "checkpoint", "", "model checkpoint to serve (from Model.SaveFile)")
	scale := flag.Int("scale", 100, "embedding-table shrink factor for presets without an explicit :scale")
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.Workers, "workers", 4, "inference workers shared by all models")
	flag.IntVar(&cfg.IntraOp, "intra-op", 0, "goroutines per forward pass (0 = GOMAXPROCS/workers)")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 32, "cross-request batch limit (samples)")
	flag.DurationVar(&cfg.MaxWait, "max-wait", 2*time.Millisecond, "longest a partial batch is held while every other worker is busy (never held while one is free)")
	flag.DurationVar(&cfg.Timeout, "timeout", 0, "per-request deadline; expired requests are shed, not executed (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "weight seed for presets")
	flag.IntVar(&cfg.TraceRing, "trace", 0, "retain N slowest + N most recent request traces per model (GET /trace/{model}; 0 = off)")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.IntVar(&cfg.EmbCache.RowsPerTable, "emb-cache", 0, "hot embedding rows cached per table in front of -emb-shards (read-through LRU; 0 = off; ignored without -emb-shards)")
	flag.StringVar(&cfg.EmbShards, "emb-shards", "", "comma-separated shard addresses of a remote embedding tier (cmd/embshard); empty = in-process tables")
	flag.DurationVar(&cfg.SLA, "sla", 0, "p99 latency target: export windowed tail estimates as recsys_sched_* metrics (0 = off)")
	flag.BoolVar(&cfg.Adapt, "adapt", false, "with -sla, hill-climb each model's batch policy live against the target")
	flag.DurationVar(&cfg.AdaptInterval, "adapt-interval", 500*time.Millisecond, "scheduling control-loop period")
	flag.IntVar(&cfg.SplitAbove, "split", 0, "split requests larger than N samples across the worker pool, merging scores in order (0 = off)")

	flag.BoolVar(&cfg.Online, "online", false, "run the continuous train→quantize→swap loop on the default model (synthetic click labels)")
	flag.DurationVar(&cfg.OnlineInterval, "online-interval", time.Second, "online update cycle period")
	flag.IntVar(&cfg.OnlineAB, "online-ab", 0, "publish candidates as a canary taking N% of POST /rank traffic, promoted next cycle (0 = swap in place)")
	flag.DurationVar(&cfg.Watch, "watch", 0, "poll -checkpoint at this period and hot-swap the model when the file changes (0 = off)")
	flag.Var(&specs, "model", "model to serve, "+model.SpecUsage+" (repeatable; default rmc1)")
	flag.Parse()

	if len(specs) == 0 && cfg.Checkpoint == "" {
		specs = modelSpecs{"rmc1"}
	}
	for _, s := range specs {
		spec, err := model.ParseSpec(s, *scale)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Models = append(cfg.Models, spec)
	}
	cfg.OnlineSteps, cfg.OnlineBatch, cfg.OnlineLR = onlineSteps, onlineBatch, onlineLR
	cfg.OnlineBuffer, cfg.OnlineHoldout = onlineBuffer, onlineHoldout
	cfg.Logf = log.Printf

	st, err := stack.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s on %s (%d workers, batch<=%d, wait<=%v)",
		strings.Join(st.Engine.Models(), ", "), *addr, cfg.Workers, cfg.MaxBatch, cfg.MaxWait)

	// The signal handler is installed before the listener exists: a
	// SIGINT that lands while the port comes up must drain and exit 0,
	// not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = serve(ctx, newHTTPServer(*addr, st.Handler()), *drain)
	st.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Print("bye")
}

// Bounds on what a connection may hold open without sending a whole
// request: slow request headers, a request (headers and body) that
// trickles in, and keep-alive idleness between requests. readTimeout
// carries an 8 MiB body at 2.3 Mbit/s.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the server main listens with. Body sizes are bounded
// by the engine's handler; a request's own time is -timeout's business.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve listens with srv until ctx is done, then stops accepting and
// waits up to drain for the requests in flight. It returns the listen
// error, if that is what ended it. ctx may already be done: the server
// then shuts down without having served.
func serve(ctx context.Context, srv *http.Server, drain time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining up to %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("forced shutdown: %v", err)
	}
	return nil
}
