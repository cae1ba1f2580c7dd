// Command serve runs recommendation models as an HTTP ranking service
// using the concurrent inference engine (model registry, per-model
// batching, shared worker pool).
//
//	serve -checkpoint model.ckpt -addr :8080
//	serve -model rmc1 -scale 100                # a scaled Table I preset
//	serve -model filter=rmc1:500@2 -model ranker=rmc3:500
//
// Repeating -model co-locates several models in one engine (the
// heterogeneous-serving scenario of the paper's §VI). Each spec is
// name=preset[:scale][@weight], or a bare preset for single-model use.
// The first model is the default target of POST /rank.
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
// -emb-cache N attaches a read-through hot-row cache of N rows per
// embedding table (eviction policy via -emb-cache-policy); hit/miss/
// eviction counters appear in GET /stats and /metrics. A preset with
// an "-int8" suffix (e.g. rmc2-int8) serves row-wise int8-quantized
// embedding tables, where the cache also amortizes dequantization; an
// "-int8mlp" suffix additionally runs the bottom/top MLPs in int8
// compute (quantized integer GEMM).
//
// -emb-shards host:port,... fans embedding gathers out to a remote
// sharded tier (cmd/embshard processes), overlapping the Bottom-MLP
// with the in-flight fetch and hedging slow sub-requests
// (-emb-hedge-after bounds the hedge floor). Every shard must be
// started with the same preset/scale/seed as the serving node.
// Single-model only: the tier serves one model's tables.
//
// -sla sets a p99 latency target and starts the scheduling observer:
// every model's windowed tail latency is estimated on a control-loop
// cadence and exported as recsys_sched_* gauges in GET /metrics.
// Adding -adapt closes the loop — the controller hill-climbs each
// model's MaxBatch/MaxWait live against the target (shrinking the
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
// the serving model, gated on held-out loss (rolling back on
// regression, -online-rollback-tol), and hot-swapped in without
// dropping traffic. -online-ab N publishes each candidate as a weighted
// canary instead — N% of POST /rank traffic routes to <model>-next
// until the next cycle promotes it. Progress is exported as
// recsys_online_* families in GET /metrics.
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
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"recsys/internal/embcache"
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/online"
	"recsys/internal/sched/adapt"
	"recsys/internal/shard"
	"recsys/internal/stats"
	"recsys/internal/train"
)

// modelSpecs collects repeated -model flags.
type modelSpecs []string

func (s *modelSpecs) String() string { return strings.Join(*s, ",") }

func (s *modelSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var specs modelSpecs
	var (
		checkpoint = flag.String("checkpoint", "", "model checkpoint to serve (from Model.SaveFile)")
		scale      = flag.Int("scale", 100, "embedding-table shrink factor for presets without an explicit :scale")
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 4, "inference workers shared by all models")
		intraOp    = flag.Int("intra-op", 0, "goroutines per forward pass (0 = GOMAXPROCS/workers)")
		maxBatch   = flag.Int("max-batch", 32, "cross-request batch limit (samples)")
		maxWait    = flag.Duration("max-wait", 2*time.Millisecond, "batch formation wait bound")
		timeout    = flag.Duration("timeout", 0, "per-request deadline; expired requests are shed, not executed (0 = none)")
		drain      = flag.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
		seed       = flag.Uint64("seed", 1, "weight seed for presets")
		traceRing  = flag.Int("trace", 0, "retain N slowest + N most recent request traces per model (GET /trace/{model}; 0 = off)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		embCache   = flag.Int("emb-cache", 0, "hot embedding rows cached per table (read-through, generation-invalidated; 0 = off)")
		embPolicy  = flag.String("emb-cache-policy", "lru", "emb-cache eviction policy: "+strings.Join(embcache.Policies(), ", "))
		embShards  = flag.String("emb-shards", "", "comma-separated shard addresses of a remote embedding tier (cmd/embshard); empty = in-process tables")
		embHedge   = flag.Duration("emb-hedge-after", 0, "hedge floor for shard sub-requests (0 = client default, negative = hedging off)")
		slaTarget  = flag.Duration("sla", 0, "p99 latency target: export windowed tail estimates as recsys_sched_* metrics (0 = off)")
		adaptOn    = flag.Bool("adapt", false, "with -sla, hill-climb each model's batch policy live against the target")
		adaptTick  = flag.Duration("adapt-interval", 500*time.Millisecond, "scheduling control-loop period")
		splitAbove = flag.Int("split", 0, "split requests larger than N samples across the worker pool, merging scores in order (0 = off)")

		onlineOn     = flag.Bool("online", false, "run the continuous train→quantize→swap loop on the default model (synthetic click labels)")
		onlineEvery  = flag.Duration("online-interval", time.Second, "online update cycle period")
		onlineSteps  = flag.Int("online-steps", 8, "training steps per online cycle")
		onlineBatch  = flag.Int("online-batch", 32, "online training batch size (samples)")
		onlineLR     = flag.Float64("online-lr", 0.01, "online learning rate")
		onlineQuant  = flag.String("online-quantize", "auto", "candidate quantization: auto (mirror serving model), tables, or off")
		onlineTol    = flag.Float64("online-rollback-tol", 0.05, "relative held-out loss regression that rolls a candidate back")
		onlineAB     = flag.Int("online-ab", 0, "publish candidates as a canary taking N% of POST /rank traffic, promoted next cycle (0 = swap in place)")
		onlineBuffer = flag.Int("online-buffer", 1<<16, "click replay buffer capacity (samples)")
		watchEvery   = flag.Duration("watch", 0, "poll -checkpoint at this period and hot-swap the model when the file changes (0 = off)")
	)
	flag.Var(&specs, "model",
		"model to serve, name=preset[:scale][@weight] (repeatable; bare preset = single model)")
	flag.Parse()

	eng, err := engine.NewEngine(engine.Options{
		Workers:        *workers,
		QueueDepth:     4 * *workers * *maxBatch,
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		IntraOpWorkers: *intraOp,
		TraceRing:      *traceRing,
		EmbCache: engine.EmbCacheOptions{
			RowsPerTable: *embCache,
			Policy:       *embPolicy,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	var shardClient *shard.Client
	if *embShards != "" {
		shardClient, err = shard.Dial(shard.Options{
			Addrs:      strings.Split(*embShards, ","),
			HedgeAfter: *embHedge,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer shardClient.Close()
		log.Printf("embedding tier: %d shards (%s)", shardClient.NumShards(), *embShards)
	}

	if err := registerModels(eng, *checkpoint, specs, *scale, *seed, shardClient); err != nil {
		log.Fatal(err)
	}
	if *splitAbove > 0 {
		for _, name := range eng.Models() {
			pol, err := eng.Policy(name)
			if err != nil {
				log.Fatal(err)
			}
			pol.SplitAbove = *splitAbove
			if err := eng.SetPolicy(name, pol); err != nil {
				log.Fatal(err)
			}
		}
	}
	ctrl, err := startController(eng, *slaTarget, *adaptOn, *adaptTick)
	if err != nil {
		log.Fatal(err)
	}
	upd, err := startOnline(eng, onlineConfig{
		enabled:  *onlineOn,
		interval: *onlineEvery,
		steps:    *onlineSteps,
		batch:    *onlineBatch,
		lr:       *onlineLR,
		quantize: *onlineQuant,
		tol:      *onlineTol,
		abWeight: *onlineAB,
		buffer:   *onlineBuffer,
		seed:     *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	stopWatch, err := startWatcher(eng, *checkpoint, *watchEvery)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s on %s (%d workers, batch<=%d, wait<=%v)",
		strings.Join(eng.Models(), ", "), *addr, *workers, *maxBatch, *maxWait)

	handler := buildHandler(eng, *timeout, *pprofOn)
	if upd != nil && upd.Router() != nil {
		handler = abMiddleware(eng, upd.Router(), handler)
	}
	// The signal handler is installed before the listener exists: a
	// SIGINT that lands while the port comes up must drain and exit 0,
	// not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, newHTTPServer(*addr, handler), *drain); err != nil {
		eng.Close()
		log.Fatal(err)
	}
	if ctrl != nil {
		ctrl.Stop()
		log.Print(ctrl.String())
	}
	if stopWatch != nil {
		stopWatch()
	}
	if upd != nil {
		upd.Stop()
		st := upd.Stats()
		log.Printf("online updater: gen=%d steps=%d swaps=%d promotions=%d rollbacks=%d",
			st.Generation, st.Steps, st.Swaps, st.Promotions, st.Rollbacks)
	}
	eng.Close()
	log.Print("bye")
}

// Bounds on what a connection may hold open without sending a request:
// slow request headers, and keep-alive idleness between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the server main listens with. Bodies are bounded by
// the engine's handler; a request's own time is -timeout's business.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
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

// onlineConfig carries the -online* flags into startOnline.
type onlineConfig struct {
	enabled  bool
	interval time.Duration
	steps    int
	batch    int
	lr       float64
	quantize string
	tol      float64
	abWeight int
	buffer   int
	seed     uint64
}

// startOnline wires the continuous-training loop over the engine's
// default model: a synthetic click labeler (a teacher model standing in
// for the impression/click join of a production pipeline) feeds a
// replay buffer through the engine's serve tap, and the updater trains,
// gates, and publishes candidates on its interval. Returns nil when
// -online is off.
func startOnline(eng *engine.Engine, oc onlineConfig) (*online.Updater, error) {
	if !oc.enabled {
		return nil, nil
	}
	var quant online.QuantizeMode
	switch oc.quantize {
	case "auto":
		quant = online.QuantizeAuto
	case "tables":
		quant = online.QuantizeTables
	case "off":
		quant = online.QuantizeOff
	default:
		return nil, fmt.Errorf("serve: -online-quantize must be auto, tables, or off, got %q", oc.quantize)
	}
	name := eng.DefaultModel()
	served, err := eng.Model(name)
	if err != nil {
		return nil, err
	}
	cfg := served.Config
	teacher, err := train.NewTeacher(cfg, oc.seed+1)
	if err != nil {
		return nil, err
	}
	holdout, holdoutLabels := teacher.Sample(512)
	buf, err := online.NewClickBuffer(cfg, oc.buffer, oc.seed+2)
	if err != nil {
		return nil, err
	}
	eng.SetServeTap(buf.Tap(teacher))
	upd, err := online.New(eng, online.Config{
		Model:         name,
		Stream:        buf,
		Holdout:       holdout,
		HoldoutLabels: holdoutLabels,
		StepsPerCycle: oc.steps,
		BatchSize:     oc.batch,
		LR:            float32(oc.lr),
		Interval:      oc.interval,
		Quantize:      quant,
		RollbackTol:   oc.tol,
		ABWeight:      oc.abWeight,
		OnSwap: func(gen uint64, _ *model.Model) {
			log.Printf("online: published generation %d of %s", gen, name)
		},
	})
	if err != nil {
		return nil, err
	}
	eng.AddMetricsWriter(upd.WriteMetrics)
	upd.Start()
	mode := "in-place swap"
	if oc.abWeight > 0 {
		mode = fmt.Sprintf("A/B canary %d%%", oc.abWeight)
	}
	log.Printf("online updater: model=%s interval=%v steps=%d batch=%d quantize=%s %s",
		name, oc.interval, oc.steps, oc.batch, oc.quantize, mode)
	return upd, nil
}

// startWatcher polls the checkpoint file and hot-swaps the default
// model when its mtime or size changes — the consumer side of
// cmd/train -snapshot-every. Returns a stop function, or nil when
// -watch is off.
func startWatcher(eng *engine.Engine, checkpoint string, every time.Duration) (func(), error) {
	if every <= 0 {
		return nil, nil
	}
	if checkpoint == "" {
		return nil, errors.New("serve: -watch requires -checkpoint")
	}
	fi, err := os.Stat(checkpoint)
	if err != nil {
		return nil, err
	}
	lastMod, lastSize := fi.ModTime(), fi.Size()
	name := eng.DefaultModel()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			fi, err := os.Stat(checkpoint)
			if err != nil || (fi.ModTime().Equal(lastMod) && fi.Size() == lastSize) {
				continue
			}
			m, err := model.LoadFile(checkpoint)
			if err != nil {
				// A snapshot writer may be mid-rename; retry next tick.
				log.Printf("watch: load %s: %v", checkpoint, err)
				continue
			}
			if err := eng.Swap(name, m); err != nil {
				log.Printf("watch: swap: %v", err)
				continue
			}
			lastMod, lastSize = fi.ModTime(), fi.Size()
			gen, _ := eng.Generation(name)
			log.Printf("watch: hot-swapped %s from %s (generation %d)", name, checkpoint, gen)
		}
	}()
	log.Printf("watching %s every %v", checkpoint, every)
	return func() { close(stop); <-done }, nil
}

// abMiddleware routes bare POST /rank requests across the online
// updater's A/B arms by rewriting them to POST /rank/{arm} before the
// engine handler sees them: the canary takes its configured share of
// default-model traffic while explicit /rank/{model} requests pass
// through untouched. An arm that vanished between pick and dispatch (a
// promotion racing traffic) falls back to the primary.
func abMiddleware(eng *engine.Engine, router *online.ABRouter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && (r.URL.Path == "/rank" || r.URL.Path == "/rank/") {
			arm := router.Pick()
			if arm != router.Primary() {
				if _, err := eng.Model(arm); err != nil {
					arm = router.Primary()
				}
			}
			r2 := r.Clone(r.Context())
			r2.URL.Path = "/rank/" + arm
			next.ServeHTTP(w, r2)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// startController wires the adaptive scheduling controller (or the
// observe-only estimator) over the engine when -sla is set: its
// recsys_sched_* families join GET /metrics, and with -adapt it
// actuates each model's batch policy live. Returns nil with no SLA.
func startController(eng *engine.Engine, sla time.Duration, actuate bool, interval time.Duration) (*adapt.Controller, error) {
	if sla <= 0 {
		if actuate {
			return nil, errors.New("serve: -adapt requires a positive -sla target")
		}
		return nil, nil
	}
	ctrl, err := adapt.New(eng, adapt.Config{
		SLA:      sla,
		Interval: interval,
		Observe:  !actuate,
	})
	if err != nil {
		return nil, err
	}
	eng.AddMetricsWriter(ctrl.WriteMetrics)
	ctrl.Start()
	mode := "observe-only"
	if actuate {
		mode = "adaptive"
	}
	log.Printf("scheduling controller: %s, sla=%v interval=%v", mode, sla, interval)
	return ctrl, nil
}

// buildHandler assembles the serving handler: the engine's endpoints,
// optionally under a per-request deadline, optionally joined by
// net/http/pprof. Split from main so the black-box server test can
// exercise the exact handler the binary serves.
func buildHandler(eng *engine.Engine, timeout time.Duration, pprofOn bool) http.Handler {
	handler := eng.Handler()
	if timeout > 0 {
		// Per-request SLA: the deadline rides the request context into
		// the engine, which bounds batch-forming waits by it and sheds
		// (rather than executes) work that can no longer meet it.
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			inner.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	if pprofOn {
		// Mounted outside the deadline wrapper: profile captures run for
		// ?seconds=N and must not inherit the ranking SLA.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	return handler
}

// registerModels fills the engine's registry from the flags: a
// checkpoint, explicit -model specs, or the single-preset default.
// A remote embedding tier (emb non-nil) is single-model: the shard
// processes serve exactly one model's tables.
func registerModels(eng *engine.Engine, checkpoint string, specs modelSpecs, defaultScale int, seed uint64, emb *shard.Client) error {
	if checkpoint != "" {
		if len(specs) > 0 {
			return errors.New("serve: -checkpoint and -model are mutually exclusive")
		}
		if emb != nil {
			return errors.New("serve: -emb-shards requires a preset -model (shards rebuild tables from preset/scale/seed)")
		}
		m, err := model.LoadFile(checkpoint)
		if err != nil {
			return err
		}
		return eng.Register(engine.DefaultModelName, m, engine.ModelOptions{})
	}
	if len(specs) == 0 {
		specs = modelSpecs{"rmc1"}
	}
	if emb != nil && len(specs) > 1 {
		return errors.New("serve: -emb-shards serves a single model; repeated -model is not supported")
	}
	rng := stats.NewRNG(seed)
	for _, spec := range specs {
		name, m, weight, err := buildSpec(spec, defaultScale, rng.Split())
		if err != nil {
			return err
		}
		if err := eng.Register(name, m, engine.ModelOptions{Weight: weight, EmbShards: emb}); err != nil {
			return err
		}
	}
	return nil
}

// buildSpec parses one -model value — name=preset[:scale][@weight],
// with name= optional when serving a single preset — and builds the
// model.
func buildSpec(spec string, defaultScale int, rng *stats.RNG) (name string, m *model.Model, weight int, err error) {
	rest := spec
	name = engine.DefaultModelName
	if eq := strings.IndexByte(rest, '='); eq >= 0 {
		name, rest = rest[:eq], rest[eq+1:]
		if name == "" {
			return "", nil, 0, fmt.Errorf("serve: empty model name in %q", spec)
		}
	}
	weight = 1
	if at := strings.IndexByte(rest, '@'); at >= 0 {
		weight, err = strconv.Atoi(rest[at+1:])
		if err != nil || weight <= 0 {
			return "", nil, 0, fmt.Errorf("serve: bad weight in %q", spec)
		}
		rest = rest[:at]
	}
	scale := defaultScale
	if colon := strings.IndexByte(rest, ':'); colon >= 0 {
		scale, err = strconv.Atoi(rest[colon+1:])
		if err != nil || scale <= 0 {
			return "", nil, 0, fmt.Errorf("serve: bad scale in %q", spec)
		}
		rest = rest[:colon]
	}
	// An "-int8" suffix (e.g. rmc2-int8) serves the preset with
	// row-wise int8-quantized embedding tables (§ memory-capacity
	// pressure; fp32 weights are retained as the source of truth).
	// "-int8mlp" (e.g. rmc1-int8mlp) additionally runs the bottom/top
	// MLPs in int8 compute.
	base, int8MLPs := strings.CutSuffix(strings.ToLower(rest), "-int8mlp")
	int8Tables := int8MLPs
	if !int8MLPs {
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
		return "", nil, 0, fmt.Errorf("serve: unknown preset %q", rest)
	}
	if scale > 1 {
		cfg = cfg.Scaled(scale)
	}
	m, err = model.Build(cfg, rng)
	if err != nil {
		return "", nil, 0, err
	}
	if int8Tables {
		m.QuantizeTables()
	}
	if int8MLPs {
		m.QuantizeMLPs()
	}
	return name, m, weight, nil
}
