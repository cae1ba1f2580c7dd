package online

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/train"
)

// Config parameterizes an Updater.
type Config struct {
	// Model names the engine registry entry to keep fresh ("" = the
	// engine's default model).
	Model string
	// Stream supplies labeled training batches (typically a ClickBuffer
	// fed by the engine's serve tap). A nil Stream trains nothing but
	// still snapshots and swaps each cycle — a swap-storm stressor.
	Stream Stream
	// Holdout + HoldoutLabels form the quality gate's held-out set: each
	// candidate's BCE loss on it is compared against the last accepted
	// generation's before publication. Leave empty to disable the gate.
	Holdout       model.Request
	HoldoutLabels []float32
	// StepsPerCycle bounds the training steps per cycle (default 8).
	StepsPerCycle int
	// BatchSize is the per-step training batch (default 32).
	BatchSize int
	// LR is the learning rate (default 0.01).
	LR float32
	// Interval is Start's cycle cadence (default 1s), timed from the end
	// of one cycle to the start of the next.
	Interval time.Duration
	// ABWeight, when in [1,99], publishes candidates as a weighted
	// canary instead of swapping in place: New registers Model+"-next"
	// once, and each candidate is swapped into that slot, receives
	// ABWeight% of routed traffic, and is promoted into Model at the
	// start of the next cycle. 0 swaps in place.
	ABWeight int
	// OnSwap, when non-nil, observes every publication that changed the
	// serving model (in-place swap or canary promotion) with the new
	// engine generation and the exact model now serving. Runs on the
	// cycle goroutine; the model must be treated as read-only.
	OnSwap func(gen uint64, m *model.Model)
	// PreSwapHook, when non-nil, sees every candidate after quantization
	// and before the quality gate — the chaos-injection point the
	// rollback scenario tests corrupt candidates through. gen is the
	// generation the candidate would become.
	PreSwapHook func(gen uint64, cand *model.Model)
}

// rollbackTol is the quality gate's tolerance: a candidate whose
// held-out loss exceeds the last accepted generation's by more than
// this fraction is rolled back instead of published.
const rollbackTol = 0.05

// CycleResult summarizes one RunCycle.
type CycleResult struct {
	Steps       int     // training steps taken
	Examples    int     // samples consumed
	TrainLoss   float32 // mean per-step BCE (0 when no step ran)
	HoldoutLoss float32 // candidate's held-out BCE (0 when gate off)
	Swapped     bool    // candidate published in place
	Promoted    bool    // previous cycle's canary promoted
	RolledBack  bool    // candidate rejected, twin reverted
	Generation  uint64  // engine generation after the cycle
}

// Stats is a point-in-time snapshot of the updater's counters.
type Stats struct {
	Model        string
	Generation   uint64
	Steps        int64
	Examples     int64
	Swaps        int64 // publications that changed serving (incl. promotions)
	Promotions   int64
	Rollbacks    int64
	Starved      int64 // cycles the stream could not fill a batch
	HoldoutLoss  float64
	BaselineLoss float64
}

// Updater is the online-learning loop: it owns an fp32 training twin of
// the serving model, trains it from the stream off the serving path,
// and publishes quantized snapshots through the engine's hot-swap (or
// A/B canary) machinery, rolling back on quality regressions.
//
// One cycle (RunCycle) is: promote any baked canary → pull up to
// StepsPerCycle batches from the stream and train the twin → clone a
// candidate and quantize it like the served model → quality-gate it on
// the held-out set → publish (swap or canary) or roll back. Start runs
// cycles on a ticker until Stop; RunCycle is public so scenario tests
// can drive deterministic swap storms at their own cadence.
type Updater struct {
	eng  *engine.Engine
	cfg  Config
	name string

	// cycleMu serializes cycles (Start's ticker goroutine vs direct
	// RunCycle callers) and guards the twin/trainer/lastGood state.
	cycleMu    sync.Mutex
	trainer    *train.Trainer
	twin       *model.Model // fp32 training copy, never served
	lastGood   *model.Model // weights of the last accepted generation
	baseLoss   float64      // held-out loss of the last accepted generation (NaN = none yet)
	quantTab   bool         // candidates get int8 tables, as the served model has
	canary     *model.Model // outstanding A/B candidate, nil when none
	canaryName string
	router     *ABRouter

	stop chan struct{}
	done chan struct{}

	steps       atomic.Int64
	examples    atomic.Int64
	swaps       atomic.Int64
	promotions  atomic.Int64
	rollbacks   atomic.Int64
	starved     atomic.Int64
	generation  atomic.Uint64
	holdoutBits atomic.Uint64 // math.Float64bits of the last candidate loss
	lastErr     atomic.Pointer[error]
}

// New builds an updater for the named registered model that trains
// twin, the fp32 model the served one was derived from (the same
// weights, before any quantization); the updater owns it from here on.
// A twin whose tables hold int8 rows cannot be trained
// (model.ErrInt8Only). The engine model is only read, never mutated:
// candidates are always fresh clones of the twin.
func New(eng *engine.Engine, twin *model.Model, cfg Config) (*Updater, error) {
	if eng == nil {
		return nil, errors.New("online: nil engine")
	}
	if twin.Quantized() {
		return nil, fmt.Errorf("online: training twin %s: %w", twin.Config.Name, model.ErrInt8Only)
	}
	if cfg.StepsPerCycle <= 0 {
		cfg.StepsPerCycle = 8
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.ABWeight < 0 || cfg.ABWeight > 99 {
		return nil, fmt.Errorf("online: ABWeight %d outside [0, 99]", cfg.ABWeight)
	}
	if len(cfg.HoldoutLabels) != cfg.Holdout.Batch {
		return nil, fmt.Errorf("online: %d holdout labels for batch %d", len(cfg.HoldoutLabels), cfg.Holdout.Batch)
	}
	name := cfg.Model
	if name == "" {
		name = eng.DefaultModel()
	}
	if name == "" {
		return nil, errors.New("online: engine has no registered model")
	}
	served, err := eng.Model(name)
	if err != nil {
		return nil, err
	}

	// Candidates mirror the model being replaced: int8 tables exactly
	// when the serving model had them here. The twin trains at full fp32
	// precision whatever the serving copy holds.
	u := &Updater{
		eng: eng, cfg: cfg, name: name, canaryName: name + "-next", twin: twin,
		quantTab: served.Quantized(),
	}
	u.lastGood, err = twin.Clone()
	if err != nil {
		return nil, err
	}

	u.trainer = train.NewTrainerWithOptimizer(u.twin, train.NewAdaGrad(cfg.LR))

	u.baseLoss = math.NaN()
	if len(cfg.HoldoutLabels) > 0 {
		// Baseline: what the currently served weights score on the
		// held-out set (read-only concurrent forward is safe).
		u.baseLoss = float64(train.BCELoss(served.CTR(cfg.Holdout), cfg.HoldoutLabels))
	}

	gen, err := eng.Generation(name)
	if err != nil {
		return nil, err
	}
	u.generation.Store(gen)

	if cfg.ABWeight > 0 {
		// The canary slot is permanent: it serves the primary's model
		// under the primary's policy until the first canary is
		// published, and keeps serving the last one, idle at weight 0,
		// after a promotion. A request routed to it is always served.
		pol, err := eng.Policy(name)
		if err != nil {
			return nil, err
		}
		if err := eng.Register(u.canaryName, served, engine.ModelOptions{Policy: pol}); err != nil {
			return nil, err
		}
		if u.router, err = NewABRouter(name); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Router returns the A/B router (nil unless Config.ABWeight > 0).
// Callers realize the configured split by ranking each request on the
// arm Router().Pick returns.
func (u *Updater) Router() *ABRouter { return u.router }

// Start runs a cycle every Config.Interval until Stop, timing each
// interval from the end of the previous cycle: a cycle that overruns
// the interval does not start the next one at once, so a canary always
// serves a full interval of A/B traffic before it is promoted. Cycle
// errors are recorded (the last one is kept) without stopping the loop
// — a transient failure must not end continuous training.
func (u *Updater) Start() {
	u.cycleMu.Lock()
	defer u.cycleMu.Unlock()
	if u.stop != nil {
		panic("online: Updater started twice")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	u.stop, u.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTimer(u.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := u.RunCycle(); err != nil {
					e := err
					u.lastErr.Store(&e)
				}
				t.Reset(u.cfg.Interval)
			}
		}
	}()
}

// Stop ends the Start loop and waits for an in-flight cycle to finish.
func (u *Updater) Stop() {
	u.cycleMu.Lock()
	stop, done := u.stop, u.done
	u.stop, u.done = nil, nil
	u.cycleMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// RunCycle executes one train→snapshot→quantize→gate→publish cycle
// synchronously. Safe to call concurrently with Start (cycles
// serialize), though scenario drivers normally use one or the other.
func (u *Updater) RunCycle() (CycleResult, error) {
	u.cycleMu.Lock()
	defer u.cycleMu.Unlock()
	var res CycleResult
	res.Generation = u.generation.Load()

	// 1. Promote last cycle's canary: it passed the gate when it was
	// published and has baked for a full interval of A/B traffic. The
	// slot keeps serving it, idle at weight 0, until the next canary.
	if u.canary != nil {
		cand := u.canary
		if err := u.eng.Swap(u.name, cand); err != nil {
			return res, err
		}
		u.canary = nil
		if err := u.router.SetArms(Arm{Name: u.name, Weight: 1}); err != nil {
			return res, err
		}
		u.promotions.Add(1)
		u.swaps.Add(1)
		res.Promoted = true
		if err := u.notePublished(&res, cand); err != nil {
			return res, err
		}
	}

	// 2. Train the twin from the stream (a starved stream skips
	// training but not the rest of the cycle — swap storms still storm).
	var lossSum float64
	if u.cfg.Stream == nil {
		u.starved.Add(1)
	}
	for i := 0; u.cfg.Stream != nil && i < u.cfg.StepsPerCycle; i++ {
		req, labels, ok := u.cfg.Stream.Sample(u.cfg.BatchSize)
		if !ok {
			u.starved.Add(1)
			break
		}
		lossSum += float64(u.trainer.Step(req, labels))
		res.Steps++
		res.Examples += req.Batch
	}
	u.steps.Add(int64(res.Steps))
	u.examples.Add(int64(res.Examples))
	if res.Steps > 0 {
		res.TrainLoss = float32(lossSum / float64(res.Steps))
	}

	// 3. Snapshot a candidate and quantize it like the served model.
	cand, err := u.twin.Clone()
	if err != nil {
		return res, err
	}
	if u.quantTab {
		cand.QuantizeTables()
	}
	if u.cfg.PreSwapHook != nil {
		u.cfg.PreSwapHook(u.generation.Load()+1, cand)
	}

	// 4. Quality gate: the candidate's held-out loss — scored by CTR,
	// which runs the forward the engine serves (int8 tables included),
	// so training blowups AND quantization damage are both caught — must
	// not regress past the tolerance. On regression the twin reverts to
	// the last good weights and nothing is published.
	if len(u.cfg.HoldoutLabels) > 0 {
		hl := float64(train.BCELoss(cand.CTR(u.cfg.Holdout), u.cfg.HoldoutLabels))
		res.HoldoutLoss = float32(hl)
		u.holdoutBits.Store(math.Float64bits(hl))
		if !math.IsNaN(u.baseLoss) && hl > u.baseLoss*(1+rollbackTol) {
			if err := u.twin.CopyWeightsFrom(u.lastGood); err != nil {
				return res, err
			}
			u.rollbacks.Add(1)
			res.RolledBack = true
			return res, nil
		}
		u.baseLoss = hl
	}
	if err := u.lastGood.CopyWeightsFrom(u.twin); err != nil {
		return res, err
	}

	// 5. Publish: in-place hot swap, or a swap into the canary slot,
	// which then takes its weighted share of routed traffic.
	if u.cfg.ABWeight <= 0 {
		if err := u.eng.Swap(u.name, cand); err != nil {
			return res, err
		}
		u.swaps.Add(1)
		res.Swapped = true
		return res, u.notePublished(&res, cand)
	}
	// The canary serves under the primary's live batch policy (split
	// threshold, tuned MaxBatch/MaxWait), so its share of traffic is
	// scheduled like the arm it is compared against.
	pol, err := u.eng.Policy(u.name)
	if err != nil {
		return res, err
	}
	if err := u.eng.SetPolicy(u.canaryName, pol); err != nil {
		return res, err
	}
	if err := u.eng.Swap(u.canaryName, cand); err != nil {
		return res, err
	}
	u.canary = cand
	return res, u.router.SetArms(
		Arm{Name: u.name, Weight: 100 - u.cfg.ABWeight},
		Arm{Name: u.canaryName, Weight: u.cfg.ABWeight},
	)
}

// notePublished refreshes the generation bookkeeping after a serving
// change and fires OnSwap.
func (u *Updater) notePublished(res *CycleResult, m *model.Model) error {
	gen, err := u.eng.Generation(u.name)
	if err != nil {
		return err
	}
	u.generation.Store(gen)
	res.Generation = gen
	if u.cfg.OnSwap != nil {
		u.cfg.OnSwap(gen, m)
	}
	return nil
}

// Stats snapshots the updater's counters.
func (u *Updater) Stats() Stats {
	s := Stats{
		Model:       u.name,
		Generation:  u.generation.Load(),
		Steps:       u.steps.Load(),
		Examples:    u.examples.Load(),
		Swaps:       u.swaps.Load(),
		Promotions:  u.promotions.Load(),
		Rollbacks:   u.rollbacks.Load(),
		Starved:     u.starved.Load(),
		HoldoutLoss: math.Float64frombits(u.holdoutBits.Load()),
	}
	u.cycleMu.Lock()
	s.BaselineLoss = u.baseLoss
	u.cycleMu.Unlock()
	return s
}
