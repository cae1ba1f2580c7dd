// Package adapt closes the loop from observed tail latency to live
// batch policy — the DeepRecSys result that the largest end-to-end
// wins in recommendation serving come from query scheduling, not
// kernels, made operational. A Controller periodically reads each
// model's end-to-end latency histogram from the engine, estimates the
// tail quantile over the *window since the previous tick* (cumulative
// histograms answer "ever", a controller needs "lately"), and
// hill-climbs the model's batch.Policy against a p99 SLA target:
//
//   - p99 above the SLA → shrink MaxBatch (adaptive step, with a
//     multiplicative panic shrink when the tail is ≥ 2× the target):
//     batching is the latency lever, so violation is answered by
//     backing it off;
//   - p99 below the headroom band → grow MaxBatch to buy throughput
//     with the spare latency budget;
//   - p99 inside the band [headroom·SLA, SLA] → hold. The deadband is
//     what keeps the climb from oscillating around the target.
//
// The step size doubles while consecutive moves keep direction
// (climbing a long slope costs O(log) windows, not O(n)) and resets
// to 1 on every reversal, so the walk tightens as it brackets the
// optimum. MaxBatch stays within [1, queue depth] by construction.
// Every other policy field (MaxWait, SplitAbove) is left as configured:
// the batch former holds a partial batch only while every worker is
// busy, so MaxWait moves neither goodput nor the tail (EXPERIMENTS.md
// "The MaxWait lever").
package adapt

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"recsys/internal/batch"
	"recsys/internal/obs"
)

// Target is the controllable serving surface. *engine.Engine
// implements it; tests substitute a synthetic latency model.
type Target interface {
	// Models lists the tunable model names. A listed model is never
	// removed, so the controller never forgets one.
	Models() []string
	// Policy returns one model's current batch policy.
	Policy(name string) (batch.Policy, error)
	// SetPolicy atomically replaces one model's batch policy.
	SetPolicy(name string, p batch.Policy) error
	// LatencySnapshot returns the model's cumulative end-to-end
	// latency histogram in nanoseconds.
	LatencySnapshot(name string) (obs.HistSnapshot, error)
	// QueueDepth is the admission queue bound — the hard ceiling for
	// any tuned MaxBatch.
	QueueDepth() int
}

// Config parameterizes the controller.
type Config struct {
	// SLA is the p99 latency target. Required.
	SLA time.Duration
	// Interval is the control period (default 500ms). Each tick
	// evaluates one window per model.
	Interval time.Duration
	// Observe makes the controller estimate and export without ever
	// calling SetPolicy — the monitor-only mode behind serve's -sla
	// without -adapt.
	Observe bool
}

// The loop's fixed constants: every controller runs with these values,
// so they are not Config fields.
const (
	// quantile is the controlled tail quantile.
	quantile = 0.99
	// minWindow is the number of requests a window must hold before it
	// is trusted; thinner windows are held, not acted on — a quiet
	// model must not be tuned on noise.
	minWindow = 32
	// headroom sets the deadband floor as a fraction of the SLA: p99 in
	// [headroom·SLA, SLA] is converged.
	headroom = 0.75
	// maxStep caps the doubling climb step in samples.
	maxStep = 64
)

// modelState is one model's control-loop memory.
type modelState struct {
	prev obs.HistSnapshot // histogram cursor; deltas are the windows
	dir  int              // last move: +1 grew, -1 shrank, 0 held
	step int              // next move size in samples (doubles, resets)

	p99    time.Duration // last trusted window's tail estimate
	window int64         // last trusted window's request count

	adjustments int64 // SetPolicy calls issued
	reversals   int64 // direction flips (the oscillation odometer)
	holds       int64 // in-band or thin-window ticks
}

// State is one model's exported controller view (Snapshot).
type State struct {
	Model       string
	P99         time.Duration // last windowed tail estimate (0 until trusted)
	Window      int64         // requests in that window
	MaxBatch    int           // current policy
	Adjustments int64
	Reversals   int64
	Holds       int64
}

// Controller runs the control loop over a Target.
type Controller struct {
	t   Target
	cfg Config

	mu     sync.Mutex
	models map[string]*modelState

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a controller. The returned controller is inert until
// Start (or explicit Step calls — the deterministic path tests and
// single-shot tools use).
func New(t Target, cfg Config) (*Controller, error) {
	if cfg.SLA <= 0 {
		return nil, errors.New("adapt: Config.SLA must be positive")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	return &Controller{
		t:      t,
		cfg:    cfg,
		models: make(map[string]*modelState),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Start launches the background control loop. Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			tick := time.NewTicker(c.cfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-tick.C:
					c.Step()
				}
			}
		}()
	})
}

// Stop halts the loop and waits for the in-flight tick, if any, to
// finish. Safe to call without Start, and idempotent.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	default:
		// Only wait if the loop ever started.
		c.startOnce.Do(func() { close(c.done) })
		<-c.done
	}
}

// Step runs one control tick over every registered model. Exported so
// tests (and tools that own their own cadence) can drive the loop
// deterministically.
func (c *Controller) Step() {
	names := c.t.Models()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		st := c.models[name]
		if st == nil {
			st = &modelState{step: 1}
			c.models[name] = st
		}
		c.stepModel(name, st)
	}
}

// stepModel evaluates one model's window and applies at most one
// policy move. Called with c.mu held.
func (c *Controller) stepModel(name string, st *modelState) {
	snap, err := c.t.LatencySnapshot(name)
	if err != nil {
		return // a Target may refuse a name; leave this model as it was
	}
	delta := snap.Sub(st.prev)
	st.prev = snap
	if delta.Count < minWindow {
		st.holds++
		return // window too thin to trust
	}
	p99 := time.Duration(delta.Quantile(quantile))
	st.p99, st.window = p99, delta.Count

	pol, err := c.t.Policy(name)
	if err != nil {
		return
	}

	sla := float64(c.cfg.SLA)
	want := 0
	switch {
	case float64(p99) > sla:
		want = -1
	case float64(p99) < headroom*sla:
		want = +1
	}
	if want == 0 {
		// In the deadband: converged. Reset the step so the next
		// excursion starts gently.
		st.dir, st.step = 0, 1
		st.holds++
		return
	}
	if st.dir != 0 && want != st.dir {
		st.reversals++
		st.step = 1
	} else if st.dir == want && st.step < maxStep {
		st.step *= 2
	}
	st.dir = want

	next := pol
	if want > 0 {
		next.MaxBatch = pol.MaxBatch + st.step
	} else {
		next.MaxBatch = pol.MaxBatch - st.step
		if p99 >= 2*c.cfg.SLA && pol.MaxBatch/2 < next.MaxBatch {
			// Panic shrink: a tail at twice the target (a flash crowd
			// just landed) halves the batch immediately instead of
			// walking down.
			next.MaxBatch = pol.MaxBatch / 2
		}
	}
	if next.MaxBatch < 1 {
		next.MaxBatch = 1
	}
	if depth := c.t.QueueDepth(); next.MaxBatch > depth {
		next.MaxBatch = depth
	}
	if next == pol || c.cfg.Observe {
		st.holds++
		return // clamped into place (or observe-only): no actuation
	}
	if err := c.t.SetPolicy(name, next); err != nil {
		return
	}
	st.adjustments++
}

// Snapshot returns the per-model controller state, sorted by model
// name. Policy fields are read live from the target.
func (c *Controller) Snapshot() []State {
	c.mu.Lock()
	out := make([]State, 0, len(c.models))
	for name, st := range c.models {
		s := State{
			Model:       name,
			P99:         st.p99,
			Window:      st.window,
			Adjustments: st.adjustments,
			Reversals:   st.reversals,
			Holds:       st.holds,
		}
		if pol, err := c.t.Policy(name); err == nil {
			s.MaxBatch = pol.MaxBatch
		}
		out = append(out, s)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// WriteMetrics emits the recsys_sched_* Prometheus families —
// registered into the engine's exposition via AddMetricsWriter so one
// scrape shows the loop's inputs (windowed p99) next to its outputs
// (live MaxBatch):
//
//	recsys_sched_sla_seconds                 gauge (controller-wide)
//	recsys_sched_adapt_enabled               gauge (0 = observe-only)
//	recsys_sched_p99_seconds{model}          gauge
//	recsys_sched_window_requests{model}      gauge
//	recsys_sched_max_batch{model}            gauge
//	recsys_sched_adjustments_total{model}    counter
//	recsys_sched_reversals_total{model}      counter
//	recsys_sched_holds_total{model}          counter
func (c *Controller) WriteMetrics(w io.Writer) {
	states := c.Snapshot()
	obs.WriteFamily(w, "recsys_sched_sla_seconds", "gauge", "Adaptive scheduling p99 SLA target.")
	obs.WriteSample(w, "recsys_sched_sla_seconds", nil, c.cfg.SLA.Seconds())
	obs.WriteFamily(w, "recsys_sched_adapt_enabled", "gauge", "1 when the controller actuates policies, 0 in observe-only mode.")
	enabled := int64(1)
	if c.cfg.Observe {
		enabled = 0
	}
	obs.WriteIntSample(w, "recsys_sched_adapt_enabled", nil, enabled)

	lbl := func(s State) []obs.Label {
		return []obs.Label{{Name: "model", Value: s.Model}}
	}
	gauges := []struct {
		name string
		help string
		load func(State) float64
	}{
		{"recsys_sched_p99_seconds", "Windowed tail-latency estimate the last control tick acted on.", func(s State) float64 { return s.P99.Seconds() }},
		{"recsys_sched_window_requests", "Requests in the last trusted control window.", func(s State) float64 { return float64(s.Window) }},
		{"recsys_sched_max_batch", "Live batch policy MaxBatch.", func(s State) float64 { return float64(s.MaxBatch) }},
	}
	for _, g := range gauges {
		obs.WriteFamily(w, g.name, "gauge", g.help)
		for _, s := range states {
			obs.WriteSample(w, g.name, lbl(s), g.load(s))
		}
	}
	counters := []struct {
		name string
		help string
		load func(State) int64
	}{
		{"recsys_sched_adjustments_total", "Policy moves issued (SetPolicy calls).", func(s State) int64 { return s.Adjustments }},
		{"recsys_sched_reversals_total", "Climb direction flips — the oscillation odometer.", func(s State) int64 { return s.Reversals }},
		{"recsys_sched_holds_total", "Ticks holding steady (in-band, thin window, or clamped).", func(s State) int64 { return s.Holds }},
	}
	for _, cn := range counters {
		obs.WriteFamily(w, cn.name, "counter", cn.help)
		for _, s := range states {
			obs.WriteIntSample(w, cn.name, lbl(s), cn.load(s))
		}
	}
}

// String summarizes the controller on one line per model, for loadgen
// and shutdown logs.
func (c *Controller) String() string {
	states := c.Snapshot()
	out := fmt.Sprintf("adaptive controller: sla=%v quantile=%.2f", c.cfg.SLA, quantile)
	for _, s := range states {
		out += fmt.Sprintf("\n  %s: p99=%v window=%d → MaxBatch=%d (%d adjustments, %d reversals, %d holds)",
			s.Model, s.P99, s.Window, s.MaxBatch, s.Adjustments, s.Reversals, s.Holds)
	}
	return out
}
