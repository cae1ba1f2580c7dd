// Package stack brings a serving process up and takes it down: the
// engine, the remote embedding tier's client, the registered models,
// the SLA controller, the online updater and the checkpoint watcher,
// wired the one way cmd/serve and loadgen -real both run them
// (DeepRecSys's point that a recommendation server is a stack, not a
// model behind a socket). A binary fills a Config from its flags and
// calls Start; everything that relates two flags to each other is
// decided here, once. DESIGN.md "Bring-up" has the order and the rules.
package stack

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"recsys/internal/batch"
	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/online"
	"recsys/internal/sched/adapt"
	"recsys/internal/shard"
	"recsys/internal/train"
)

// Config is a serving process as its flags describe it. Field comments
// name the flag each one carries; zero values mean what the flag's zero
// means.
type Config struct {
	// Models are the parsed -model specs, in registration order (the
	// first is the default target of POST /rank); Seed is -seed, from
	// which model.BuildSpecs draws their weights. Checkpoint (-checkpoint)
	// serves one saved model instead.
	Models     []model.Spec
	Seed       uint64
	Checkpoint string

	// The engine: -workers, -intra-op, -max-batch (0 or less is the
	// engine's own spelling of "batching off"), -max-wait, -trace,
	// -emb-cache (sizes the row cache in front of EmbShards; ignored,
	// with a log line, when there are none), and -split.
	Workers    int
	IntraOp    int
	MaxBatch   int
	MaxWait    time.Duration
	TraceRing  int
	EmbCache   engine.EmbCacheOptions
	SplitAbove int

	// EmbShards is -emb-shards, comma-separated embshard addresses.
	EmbShards string

	// SLA (-sla) starts the scheduling controller, observe-only unless
	// Adapt (-adapt); AdaptInterval is -adapt-interval.
	SLA           time.Duration
	Adapt         bool
	AdaptInterval time.Duration

	// Online (-online) runs the train→quantize→swap loop on the default
	// model every OnlineInterval (-online-interval), publishing canaries
	// that take OnlineAB% of traffic when -online-ab is set. The
	// training knobs are constants of each binary, which pick different
	// ones: OnlineSteps steps of OnlineBatch samples at OnlineLR a cycle,
	// drawn from a replay buffer of OnlineBuffer samples. OnlineHoldout
	// is the size of the held-out set the quality gate scores candidates
	// on, 0 for no gate (loadgen's smoke run asserts that swaps land, not
	// what they learned). Candidates are quantized like the serving
	// model, and roll back on a 5% held-out loss regression.
	Online         bool
	OnlineInterval time.Duration
	OnlineAB       int
	OnlineSteps    int
	OnlineBatch    int
	OnlineLR       float64
	OnlineBuffer   int
	OnlineHoldout  int

	// Watch (-watch) polls Checkpoint and hot-swaps it in when it changes.
	Watch time.Duration

	// Timeout (-timeout) and Pprof (-pprof) shape Handler.
	Timeout time.Duration
	Pprof   bool

	// Logf receives bring-up, hot-swap and shutdown notices; nil keeps
	// the stack silent.
	Logf func(format string, args ...any)
}

// validate enforces the rules that relate one flag to another.
func (c Config) validate() error {
	switch {
	case c.Checkpoint != "" && len(c.Models) > 0:
		return errors.New("stack: -checkpoint and -model are mutually exclusive")
	case c.Checkpoint == "" && len(c.Models) == 0:
		return errors.New("stack: nothing to serve: give -model or -checkpoint")
	case c.EmbShards != "" && c.Checkpoint != "":
		return errors.New("stack: -emb-shards requires a preset -model (shards rebuild tables from preset/scale/seed)")
	case c.EmbShards != "" && len(c.Models) > 1:
		return errors.New("stack: -emb-shards serves a single model; repeated -model is not supported")
	case c.EmbShards != "" && c.Online:
		return errors.New("stack: -online trains embedding rows the -emb-shards tier cannot receive")
	case c.Adapt && c.SLA <= 0:
		return errors.New("stack: -adapt requires a positive -sla target")
	case c.Watch > 0 && c.Checkpoint == "":
		return errors.New("stack: -watch requires -checkpoint")
	case c.Watch > 0 && c.Online:
		return errors.New("stack: -watch and -online both replace the default model; the updater's next swap would discard the watched checkpoint")
	}
	return nil
}

// engineOptions derives the engine's options. The admission queue holds
// four full batches per worker; MaxBatch is clamped first, so "batching
// off" sizes the queue for single-sample batches instead of zeroing it.
func (c Config) engineOptions() engine.Options {
	maxBatch := c.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 1
	}
	return engine.Options{
		Workers:        c.Workers,
		QueueDepth:     4 * c.Workers * maxBatch,
		MaxBatch:       maxBatch,
		MaxWait:        c.MaxWait,
		IntraOpWorkers: c.IntraOp,
		TraceRing:      c.TraceRing,
		EmbCache:       c.EmbCache,
	}
}

// Stack is a running serving process, less its listener. The exported
// parts are there to be read (stats, summaries, routing); nil means the
// part is off.
type Stack struct {
	Engine     *engine.Engine
	Shards     *shard.Client
	Controller *adapt.Controller
	Updater    *online.Updater
	Clicks     *online.ClickBuffer // the updater's replay buffer

	cfg       Config
	stopWatch func()
}

// Start validates cfg and brings the stack up in dependency order:
// engine, shard client, models, controller, updater, watcher. On error
// whatever had started is closed again.
func Start(cfg Config) (*Stack, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := engine.NewEngine(cfg.engineOptions())
	if err != nil {
		return nil, err
	}
	s := &Stack{Engine: eng, cfg: cfg}
	for _, step := range []func() error{
		s.dialShards, s.register, s.startController, s.startOnline, s.startWatcher,
	} {
		if err := step(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close stops the control loops before the engine they act on, and the
// engine before the shard client its gathers use.
func (s *Stack) Close() {
	if s.Controller != nil {
		s.Controller.Stop()
		s.logf("%s", s.Controller)
	}
	if s.stopWatch != nil {
		s.stopWatch()
	}
	if s.Updater != nil {
		s.Updater.Stop()
		st := s.Updater.Stats()
		s.logf("online updater: gen=%d steps=%d swaps=%d promotions=%d rollbacks=%d",
			st.Generation, st.Steps, st.Swaps, st.Promotions, st.Rollbacks)
	}
	s.Engine.Close()
	if s.Shards != nil {
		s.Shards.Close()
	}
}

func (s *Stack) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Stack) dialShards() error {
	if s.cfg.EmbShards == "" {
		if s.cfg.EmbCache.Enabled() {
			s.logf("-emb-cache %d ignored: the row cache fronts -emb-shards only; in-process rows are read in place", s.cfg.EmbCache.RowsPerTable)
		}
		return nil
	}
	client, err := shard.Dial(shard.Options{Addrs: strings.Split(s.cfg.EmbShards, ",")})
	if err != nil {
		return err
	}
	s.Shards = client
	s.logf("embedding tier: %d shards (%s)", client.NumShards(), s.cfg.EmbShards)
	return nil
}

// register fills the registry from the checkpoint or the specs. Every
// model starts under the engine's batch policy plus the -split
// threshold; an unnamed spec takes the default name.
func (s *Stack) register() error {
	opts := s.cfg.engineOptions()
	pol := batch.Policy{MaxBatch: opts.MaxBatch, MaxWait: opts.MaxWait}
	if s.cfg.SplitAbove > 0 {
		pol.SplitAbove = s.cfg.SplitAbove
	}
	if s.cfg.Checkpoint != "" {
		m, err := model.LoadFile(s.cfg.Checkpoint)
		if err != nil {
			return err
		}
		return s.Engine.Register(engine.DefaultModelName, m, engine.ModelOptions{Policy: pol})
	}
	models, err := model.BuildSpecs(s.cfg.Models, s.cfg.Seed)
	if err != nil {
		return err
	}
	for i, spec := range s.cfg.Models {
		name := spec.Name
		if name == "" {
			name = engine.DefaultModelName
		}
		mo := engine.ModelOptions{Policy: pol, Weight: spec.Weight, EmbShards: s.Shards}
		if err := s.Engine.Register(name, models[i], mo); err != nil {
			return err
		}
	}
	return nil
}

// startController runs the scheduling controller when an SLA is set:
// its recsys_sched_* families join GET /metrics, and with Adapt it
// actuates each model's batch policy live.
func (s *Stack) startController() error {
	if s.cfg.SLA <= 0 {
		return nil
	}
	ctrl, err := adapt.New(s.Engine, adapt.Config{
		SLA:      s.cfg.SLA,
		Interval: s.cfg.AdaptInterval,
		Observe:  !s.cfg.Adapt,
	})
	if err != nil {
		return err
	}
	s.Engine.AddMetricsWriter(ctrl.WriteMetrics)
	ctrl.Start()
	s.Controller = ctrl
	mode := "observe-only"
	if s.cfg.Adapt {
		mode = "adaptive"
	}
	s.logf("scheduling controller: %s, sla=%v interval=%v", mode, s.cfg.SLA, s.cfg.AdaptInterval)
	return nil
}

// startOnline wires the continuous-training loop over the default
// model: a synthetic click labeler (a teacher model at seed+1, standing
// in for the impression/click join of a production pipeline) feeds a
// replay buffer (seed+2) through the engine's serve tap, and the
// updater trains, gates, and publishes candidates on its interval.
func (s *Stack) startOnline() error {
	c := s.cfg
	if !c.Online {
		return nil
	}
	name := s.Engine.DefaultModel()
	served, err := s.Engine.Model(name)
	if err != nil {
		return err
	}
	teacher, err := train.NewTeacher(served.Config, c.Seed+1)
	if err != nil {
		return err
	}
	oc := online.Config{
		Model:         name,
		StepsPerCycle: c.OnlineSteps,
		BatchSize:     c.OnlineBatch,
		LR:            float32(c.OnlineLR),
		Interval:      c.OnlineInterval,
		ABWeight:      c.OnlineAB,
		OnSwap: func(gen uint64, _ *model.Model) {
			s.logf("online: published generation %d of %s", gen, name)
		},
	}
	if c.OnlineHoldout > 0 {
		oc.Holdout, oc.HoldoutLabels = teacher.Sample(c.OnlineHoldout)
	}
	buf, err := online.NewClickBuffer(served.Config, c.OnlineBuffer, c.Seed+2)
	if err != nil {
		return err
	}
	oc.Stream = buf
	s.Engine.SetServeTap(buf.Tap(teacher))
	twin, err := s.trainingTwin()
	if err != nil {
		return err
	}
	upd, err := online.New(s.Engine, twin, oc)
	if err != nil {
		return err
	}
	s.Engine.AddMetricsWriter(upd.WriteMetrics)
	upd.Start()
	s.Updater, s.Clicks = upd, buf
	mode := "in-place swap"
	if c.OnlineAB > 0 {
		mode = fmt.Sprintf("A/B canary %d%%", c.OnlineAB)
	}
	s.logf("online updater: model=%s interval=%v steps=%d batch=%d quantize=auto %s",
		name, c.OnlineInterval, c.OnlineSteps, c.OnlineBatch, mode)
	return nil
}

// trainingTwin rebuilds the default model from its source as the fp32
// model the updater trains: the checkpoint, or spec 0 with its int8
// suffix cleared, whose weight stream gives exactly the rows a
// served -int8 copy was quantized from. An int8 checkpoint has no fp32
// rows, and online.New refuses it (model.ErrInt8Only).
func (s *Stack) trainingTwin() (*model.Model, error) {
	if s.cfg.Checkpoint != "" {
		return model.LoadFile(s.cfg.Checkpoint)
	}
	spec := s.cfg.Models[0]
	spec.Int8Tables = false
	models, err := model.BuildSpecs([]model.Spec{spec}, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	return models[0], nil
}

// startWatcher polls the checkpoint file and hot-swaps the default
// model when its mtime or size changes — the consumer side of
// cmd/train -snapshot-every. A refused snapshot keeps the served model
// and is logged once.
func (s *Stack) startWatcher() error {
	every, checkpoint := s.cfg.Watch, s.cfg.Checkpoint
	if every <= 0 {
		return nil
	}
	fi, err := os.Stat(checkpoint)
	if err != nil {
		return err
	}
	lastMod, lastSize := fi.ModTime(), fi.Size()
	name := s.Engine.DefaultModel()
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
			// This version of the file is judged once: a snapshot that
			// does not load or does not fit the served model is refused
			// (and logged) until the file changes again, not re-read
			// every tick.
			lastMod, lastSize = fi.ModTime(), fi.Size()
			m, err := model.LoadFile(checkpoint)
			if err != nil {
				s.logf("watch: load %s: %v", checkpoint, err)
				continue
			}
			if err := s.Engine.Swap(name, m); err != nil {
				s.logf("watch: swap: %v", err)
				continue
			}
			gen, _ := s.Engine.Generation(name)
			s.logf("watch: hot-swapped %s from %s (generation %d)", name, checkpoint, gen)
		}
	}()
	s.stopWatch = func() { close(stop); <-done }
	s.logf("watching %s every %v", checkpoint, every)
	return nil
}
