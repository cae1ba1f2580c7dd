package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/obs"
	"recsys/internal/shard"
	"recsys/internal/tensor"
)

// ErrModelNotFound is returned (wrapped with the model name) by Rank,
// Swap, Unregister, and the HTTP front-end for unknown models.
var ErrModelNotFound = errors.New("engine: model not found")

// ModelOptions configures one registered model.
type ModelOptions struct {
	// Policy bounds this model's batch former. A zero Policy inherits
	// the engine's default (Options.MaxBatch / Options.MaxWait).
	Policy batch.Policy
	// Weight biases the executor's fair pick toward this model's queue
	// (a weight-2 model is offered twice the dispatch slots of a
	// weight-1 model under contention). 0 means 1.
	Weight int
	// EmbShards, when non-nil, redirects this model's embedding gathers
	// to a remote sharded tier: every SLS op reads rows through the
	// client instead of its in-process tables, and the forward pass
	// overlaps the Bottom-MLP with the in-flight fan-out. The tier must
	// serve the same table weights the model was built with (same
	// preset/scale/seed on every shard), or results will silently
	// diverge from local serving. The caller owns the client's
	// lifecycle; it must outlive the model's registration.
	EmbShards *shard.Client
}

// Engine is the multi-model serving core: a registry of named,
// hot-swappable models, each with its own admission queue and batch
// former, drained by one shared executor worker pool — the layering
// DeepRecSys (Gupta et al., 2020) argues for, and the substrate for
// the paper's heterogeneous co-location scenarios (§VI).
type Engine struct {
	opts Options

	mu          sync.Mutex
	queues      map[string]*modelQueue
	order       []*modelQueue // registration order; WRR scan set
	defaultName string        // first registered model; POST /rank target
	wrrTotal    int
	wrrCur      map[*modelQueue]int // smooth-WRR state, guarded by mu
	closed      bool
	// extraMetrics are exposition contributors layered above the
	// engine (AddMetricsWriter), guarded by mu.
	extraMetrics []func(io.Writer)

	// serveTap, when set, observes every successfully served batch
	// (SetServeTap) — the click-stream source of the online-learning
	// loop. Atomic so executor workers load it without the registry
	// lock; nil costs one pointer load per batch.
	serveTap atomic.Pointer[ServeTap]

	// now is the clock the HTTP ingest stage times a traced decode with;
	// a field so a test can count its reads.
	now func() time.Time

	wake    chan struct{} // executor wakeup tokens
	pool    *pool         // in-pass count and pass-ended signal (queue.go)
	closing chan struct{} // closed first: reject/abort admissions
	done    chan struct{} // closed after senders drain: workers may exit
	wg      sync.WaitGroup
}

// ServeTap observes served traffic: the executor invokes the tap once
// per successful forward pass with the model name, the (possibly
// coalesced) request, and its scores. Both arguments alias
// executor-owned buffers that are reused after the call returns — taps
// must copy what they keep. The tap runs on the serving path, on the
// executor worker that ran the pass, concurrently from every worker: it
// must be safe for that concurrency and return quickly.
type ServeTap func(model string, req model.Request, scores []float32)

// SetServeTap installs (or, with nil, removes) the engine's serve tap.
// The swap is atomic; in-flight batches finish under the tap they
// loaded.
func (e *Engine) SetServeTap(tap ServeTap) {
	if tap == nil {
		e.serveTap.Store(nil)
		return
	}
	e.serveTap.Store(&tap)
}

// NewEngine starts an engine with no registered models. It returns an
// error on non-positive worker or queue options.
func NewEngine(opts Options) (*Engine, error) {
	if opts.Workers <= 0 || opts.QueueDepth <= 0 {
		return nil, fmt.Errorf("engine: workers and queue depth must be positive, got %d, %d", opts.Workers, opts.QueueDepth)
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1
	}
	if opts.MaxWait < 0 {
		return nil, fmt.Errorf("engine: negative MaxWait %v", opts.MaxWait)
	}
	if opts.EmbCache.RowsPerTable < 0 {
		return nil, fmt.Errorf("engine: negative EmbCache.RowsPerTable %d", opts.EmbCache.RowsPerTable)
	}
	opts.IntraOpWorkers = resolveIntraOp(opts)
	e := &Engine{
		opts:    opts,
		queues:  make(map[string]*modelQueue),
		wrrCur:  make(map[*modelQueue]int),
		now:     time.Now,
		wake:    make(chan struct{}, opts.Workers),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.pool = newPool(opts.Workers, e.done)
	e.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// defaultPolicy is the engine-level batching policy models inherit.
func (e *Engine) defaultPolicy() batch.Policy {
	return batch.Policy{MaxBatch: e.opts.MaxBatch, MaxWait: e.opts.MaxWait}
}

// Register adds a named model. The first registered model becomes the
// default target of the single-model API (Server.Rank, POST /rank).
func (e *Engine) Register(name string, m *model.Model, mo ModelOptions) error {
	if name == "" {
		return errors.New("engine: empty model name")
	}
	if m == nil {
		return errors.New("engine: nil model")
	}
	pol := mo.Policy
	if pol == (batch.Policy{}) {
		pol = e.defaultPolicy()
	}
	if pol.MaxBatch <= 0 {
		pol.MaxBatch = 1
	}
	if err := pol.Validate(); err != nil {
		return err
	}
	weight := mo.Weight
	if weight <= 0 {
		weight = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, dup := e.queues[name]; dup {
		return fmt.Errorf("engine: model %q already registered", name)
	}
	mq := newModelQueue(name, m, weight, pol, e.opts.QueueDepth, e.opts.TraceRing)
	mq.embClient = mo.EmbShards
	if err := mq.buildRowStores(m, e.opts.EmbCache); err != nil {
		return err
	}
	mq.attachRowStores(m)
	e.queues[name] = mq
	e.order = append(e.order, mq)
	e.wrrTotal += weight
	e.wrrCur[mq] = 0
	if e.defaultName == "" {
		e.defaultName = name
	}
	return nil
}

// Swap replaces a registered model's weights in place: queued and
// future requests run against next. The new model must accept the same
// input shape (dense width, table count, per-table lookups), so
// requests validated against the old config stay well-formed — the
// checkpoint-reload path of a retrain cycle. A model behind a remote
// tier must also keep every table's rows and width, which is the shape
// the tier serves.
//
// The swap is one publish: next is attached to the queue's row stores
// (next is not serving yet, so the writes race nothing) and then
// stored together with the next generation number as one immutable
// value. A pass loads that value once, so it runs wholly on the model
// it loaded, whichever swaps happen meanwhile; Swap never waits for a
// pass, and no pass waits for a Swap.
func (e *Engine) Swap(name string, next *model.Model) error {
	if next == nil {
		return errors.New("engine: nil model")
	}
	e.mu.Lock()
	mq, ok := e.queues[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	mq.swapMu.Lock()
	defer mq.swapMu.Unlock()
	cur := mq.published.Load()
	if err := compatibleShape(cur.model.Config, next.Config, mq.embClient != nil); err != nil {
		return err
	}
	mq.attachRowStores(next)
	mq.published.Store(&served{model: next, gen: cur.gen + 1})
	return nil
}

// Generation returns the named model's swap generation ("" = the
// default model): 1 when first registered, incremented by every
// successful Swap. The generation is published with its model, so
// reading G guarantees requests admitted afterwards are served by a
// model of generation ≥ G, and a request that completed before the
// read was served by one of generation ≤ G.
func (e *Engine) Generation(name string) (uint64, error) {
	mq, err := e.lookup(name)
	if err != nil {
		return 0, err
	}
	return mq.published.Load().gen, nil
}

// compatibleShape checks that requests shaped for old remain valid
// inputs of next. Rows may grow and a width may change, except behind
// a remote tier (tier), which serves the registered tables as they are.
func compatibleShape(old, next model.Config, tier bool) error {
	if next.DenseIn != old.DenseIn {
		return fmt.Errorf("engine: swap changes dense width %d → %d", old.DenseIn, next.DenseIn)
	}
	if len(next.Tables) != len(old.Tables) {
		return fmt.Errorf("engine: swap changes table count %d → %d", len(old.Tables), len(next.Tables))
	}
	for i, o := range old.Tables {
		n := next.Tables[i]
		switch {
		case n.Lookups != o.Lookups:
			return fmt.Errorf("engine: swap changes table %d lookups %d → %d", i, o.Lookups, n.Lookups)
		case n.Rows < o.Rows:
			return fmt.Errorf("engine: swap shrinks table %d rows %d → %d", i, o.Rows, n.Rows)
		case tier && n.Rows != o.Rows:
			return fmt.Errorf("engine: swap changes table %d rows %d → %d behind the remote tier", i, o.Rows, n.Rows)
		case tier && n.Dim != o.Dim:
			return fmt.Errorf("engine: swap changes table %d width %d → %d behind the remote tier", i, o.Dim, n.Dim)
		}
	}
	return nil
}

// SetPolicy replaces a registered model's batch policy at runtime —
// the actuator of the adaptive scheduling controller
// (internal/sched/adapt), also usable directly for manual retuning.
// The new policy is published atomically: batches already forming
// finish under the policy they loaded, the next formBatch sees the
// new one. A non-positive MaxBatch is normalized to 1 (batching off),
// matching Register.
func (e *Engine) SetPolicy(name string, p batch.Policy) error {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 1
	}
	if err := p.Validate(); err != nil {
		return err
	}
	mq, err := e.lookup(name)
	if err != nil {
		return err
	}
	mq.storePolicy(p)
	return nil
}

// Policy returns a registered model's current batch policy.
func (e *Engine) Policy(name string) (batch.Policy, error) {
	mq, err := e.lookup(name)
	if err != nil {
		return batch.Policy{}, err
	}
	return mq.loadPolicy(), nil
}

// LatencySnapshot returns a model's cumulative end-to-end Rank
// latency histogram in nanoseconds. Consumers tracking a recent
// window (the adaptive controller's p99 estimate) difference
// successive snapshots with obs.HistSnapshot.Sub.
func (e *Engine) LatencySnapshot(name string) (obs.HistSnapshot, error) {
	mq, err := e.lookup(name)
	if err != nil {
		return obs.HistSnapshot{}, err
	}
	return mq.latHist.Snapshot(), nil
}

// QueueDepth reports the per-model admission queue bound
// (Options.QueueDepth) — the natural ceiling for any runtime-tuned
// MaxBatch, since a batch can never coalesce more requests than the
// queue admits.
func (e *Engine) QueueDepth() int { return e.opts.QueueDepth }

// Unregister removes a model: new Rank calls fail, blocked admissions
// abort, and already-queued requests fail with ErrModelNotFound.
// Batches already picked up by a worker complete normally.
func (e *Engine) Unregister(name string) error {
	e.mu.Lock()
	mq, ok := e.queues[name]
	if ok {
		delete(e.queues, name)
		for i, q := range e.order {
			if q == mq {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
		e.wrrTotal -= mq.weight
		delete(e.wrrCur, mq)
		if e.defaultName == name {
			e.defaultName = ""
			if len(e.order) > 0 {
				e.defaultName = e.order[0].name
			}
		}
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	close(mq.gone)
	mq.senders.Wait()
	mq.failPending(fmt.Errorf("%w: %q", ErrModelNotFound, name))
	return nil
}

// Models returns the registered model names in registration order.
func (e *Engine) Models() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, len(e.order))
	for i, mq := range e.order {
		names[i] = mq.name
	}
	return names
}

// Model returns the named model (e.g. to validate request shapes), or
// the default model when name is empty.
func (e *Engine) Model(name string) (*model.Model, error) {
	mq, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	return mq.published.Load().model, nil
}

// DefaultModel returns the name Rank resolves "" to: the oldest
// registered model still present.
func (e *Engine) DefaultModel() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.defaultName
}

func (e *Engine) lookup(name string) (*modelQueue, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if name == "" {
		name = e.defaultName
	}
	mq, ok := e.queues[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	return mq, nil
}

// Rank scores one batched request against the named model ("" = the
// default model), blocking until an executor worker completes it or
// ctx is done.
func (e *Engine) Rank(ctx context.Context, name string, req model.Request) ([]float32, error) {
	return e.RankInto(ctx, name, nil, req)
}

// sealTrace records a terminal event for a request that never reached
// the executor (admission shed, validation reject, or an aborted
// enqueue).
func sealTrace(mq *modelQueue, tr *obs.Trace, outcome string, err error) {
	if tr == nil {
		return
	}
	tr.Outcome = outcome
	if err != nil {
		tr.Err = err.Error()
	}
	tr.TotalUS = float64(time.Since(tr.Start)) / 1e3
	mq.ring.Add(tr)
}

// RankInto is Rank with a caller-owned result buffer: the scores are
// appended into dst[:0] (grown when capacity is short) so a caller
// reusing its buffer ranks with zero steady-state allocations — the
// engine-level extension of the ForwardEx arena contract, enforced by
// the bench-regression harness.
//
// Ownership: on success the returned slice is dst's backing array (or
// a grown replacement). On error the buffer's contents are
// unspecified; if the error came from ctx (the request was abandoned
// mid-flight) a worker may still be writing into dst's backing array,
// so the caller must not reuse dst until the request's batch has
// surely drained — pass a fresh buffer per attempt when deadlines can
// lapse.
//
// When the model's policy sets SplitAbove and the request carries more
// samples than that, the request is split into near-equal chunks
// dispatched independently across the executor pool and merged back in
// sample order (rankSplit) — scores are bit-identical to the unsplit
// path because the forward pass is row-independent.
func (e *Engine) RankInto(ctx context.Context, name string, dst []float32, req model.Request) ([]float32, error) {
	return e.rankOne(ctx, name, dst, req, ingestStats{}, true)
}

// rankOne is the admission path: resolve the model, split an oversized
// request when split is set and the model's policy asks for it,
// otherwise validate, enqueue and await the executor's response. in is
// what the HTTP front-end measured (zero for in-process callers) and
// rides into the request's trace.
func (e *Engine) rankOne(ctx context.Context, name string, dst []float32, req model.Request, in ingestStats, split bool) ([]float32, error) {
	// Admission: resolve the queue and register as a sender under the
	// lock, so Close and Unregister wait for the enqueue (or its
	// abort) before draining.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	lookupName := name
	if lookupName == "" {
		lookupName = e.defaultName
	}
	mq, ok := e.queues[lookupName]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if pol := mq.loadPolicy(); split && pol.SplitAbove > 0 && req.Batch > pol.SplitAbove {
		e.mu.Unlock()
		return e.rankSplit(ctx, name, mq, dst, req, pol.SplitAbove, in)
	}
	mq.senders.Add(1)
	e.mu.Unlock()

	// Trace admission: one allocation per request when the model's
	// ring is configured, none at all when tracing is off — every
	// trace-gated clock read below keys off tr != nil.
	var tr *obs.Trace
	if mq.ring != nil {
		tr = &obs.Trace{Model: mq.name, Batch: req.Batch, DecodeUS: in.decodeUS, BodyBytes: in.bodyBytes, Start: time.Now()}
	}

	// Deadline-aware shedding starts at admission: a request whose
	// context is already done is dropped before it can occupy queue
	// space or a batch-forming wait.
	if err := ctx.Err(); err != nil {
		mq.senders.Done()
		mq.sheds.Add(1)
		mq.errs.Add(1)
		sealTrace(mq, tr, obs.OutcomeShed, err)
		return nil, err
	}
	// Admission-time validation: malformed requests are refused here
	// with a typed ErrBadRequest instead of panicking a shared executor
	// worker deep inside a kernel. Swap preserves input shapes, so a
	// request validated against the current model stays valid for any
	// later swap-in.
	cfg := mq.published.Load().model.Config
	verr := model.ValidateRequest(cfg, req)
	// The trace's stages share their boundary timestamps, so they tile
	// the request with no gap between one and the next: validate runs
	// from admission to here, queue wait from here to the pop.
	var validated time.Time
	if tr != nil {
		validated = time.Now()
		tr.ValidateUS = float64(validated.Sub(tr.Start)) / 1e3
	}
	if verr != nil {
		mq.senders.Done()
		mq.rejected.Add(1)
		mq.errs.Add(1)
		sealTrace(mq, tr, obs.OutcomeRejected, verr)
		return nil, verr
	}

	deadline, _ := ctx.Deadline()
	j := getJob()
	j.ctx, j.req, j.deadline, j.dst, j.tr = ctx, req, deadline, dst, tr
	j.enqueuedAt = validated
	select {
	case mq.q <- j:
		mq.senders.Done()
		e.kick()
	case <-ctx.Done():
		mq.senders.Done()
		mq.errs.Add(1)
		sealTrace(mq, tr, obs.OutcomeShed, ctx.Err())
		putJob(j)
		return nil, ctx.Err()
	case <-e.closing:
		mq.senders.Done()
		mq.errs.Add(1)
		sealTrace(mq, tr, obs.OutcomeError, ErrClosed)
		putJob(j)
		return nil, ErrClosed
	case <-mq.gone:
		mq.senders.Done()
		mq.errs.Add(1)
		err := fmt.Errorf("%w: %q", ErrModelNotFound, lookupName)
		sealTrace(mq, tr, obs.OutcomeError, err)
		putJob(j)
		return nil, err
	}
	start := time.Now()
	select {
	case r := <-j.resp:
		putJob(j)
		if r.err != nil {
			mq.errs.Add(1)
			return nil, r.err
		}
		mq.requests.Add(1)
		mq.recordLatency(time.Since(start))
		return r.ctr, nil
	case <-ctx.Done():
		// The worker may still process the job (and write into dst);
		// its result is dropped and the job is left to the GC rather
		// than pooled.
		mq.errs.Add(1)
		return nil, ctx.Err()
	}
}

// rankSplit fans one oversized request out as ceil(batch/chunkMax)
// near-equal chunks — DeepRecSys's query splitting: a large candidate
// set stops serializing behind one forward pass and instead occupies
// several executor workers concurrently, trading aggregate work for
// tail latency. Each chunk rides the normal admission path and is never
// split again (validated, queued, batched, counted, and
// latency-recorded like any request — the controller's p99 window
// therefore sees chunk latencies, which are what the batch policy
// actually controls), while the parent counts once in Stats.Splits.
//
// Ordered merge: chunk i's scores land in res[off_i:off_i+n_i], a
// subslice of the parent's result buffer carved before dispatch — the
// merge is positional, so no ordering is ever recovered after the
// fact and the concatenation is bit-identical to the unsplit pass.
func (e *Engine) rankSplit(ctx context.Context, name string, mq *modelQueue, dst []float32, req model.Request, chunkMax int, in ingestStats) ([]float32, error) {
	// Validate the parent once up front: a malformed oversized request
	// is refused with one typed error before any chunk is admitted.
	cfg := mq.published.Load().model.Config
	if err := model.ValidateRequest(cfg, req); err != nil {
		mq.rejected.Add(1)
		mq.errs.Add(1)
		return nil, err
	}
	chunks := (req.Batch + chunkMax - 1) / chunkMax
	mq.splits.Add(1)
	res := dst[:0]
	if cap(res) < req.Batch {
		res = make([]float32, 0, req.Batch)
	}
	res = res[:req.Batch]

	base, rem := req.Batch/chunks, req.Batch%chunks
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	off := 0
	for i := 0; i < chunks; i++ {
		size := base
		if i < rem {
			size++
		}
		sub := subRequest(cfg, req, off, size)
		// A three-index subslice caps the chunk's buffer at its slot, so
		// the in-place append in deliver can never bleed into the next
		// chunk's rows.
		buf := res[off : off : off+size]
		run := func(i int, sub model.Request, buf []float32) {
			out, err := e.rankOne(ctx, name, buf, sub, in, false)
			if err != nil {
				errs[i] = err
				return
			}
			// deliver appends into buf's backing array in place; copy
			// only if an unexpected growth re-homed the scores.
			if len(out) > 0 && &out[0] != &buf[:1][0] {
				copy(buf[:len(out)], out)
			}
		}
		if i < chunks-1 {
			wg.Add(1)
			go func(i int, sub model.Request, buf []float32) {
				defer wg.Done()
				run(i, sub, buf)
			}(i, sub, buf)
		} else {
			// The last chunk runs on the caller's goroutine.
			run(i, sub, buf)
		}
		off += size
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// subRequest views one chunk of req without copying: dense rows and
// per-table ID lists are subsliced by sample offset. The chunk aliases
// the parent request, which the caller keeps alive across the rank.
func subRequest(cfg model.Config, req model.Request, off, n int) model.Request {
	sub := model.Request{Batch: n}
	if req.Dense != nil && cfg.DenseIn > 0 {
		cols := cfg.DenseIn
		sub.Dense = tensor.FromSlice(req.Dense.Data()[off*cols:(off+n)*cols], n, cols)
	}
	if len(req.SparseIDs) > 0 {
		ids := make([][]int, len(req.SparseIDs))
		for t := range req.SparseIDs {
			lk := cfg.Tables[t].Lookups
			ids[t] = req.SparseIDs[t][off*lk : (off+n)*lk]
		}
		sub.SparseIDs = ids
	}
	return sub
}

// Traces returns the retained request traces of one model ("" = the
// default model): the N most recent and N slowest, as configured by
// Options.TraceRing. With tracing disabled the dump is empty and
// Enabled is false.
func (e *Engine) Traces(name string) (obs.Dump, error) {
	mq, err := e.lookup(name)
	if err != nil {
		return obs.Dump{}, err
	}
	d := obs.Dump{Model: mq.name, Recent: []*obs.Trace{}, Slowest: []*obs.Trace{}}
	if mq.ring != nil {
		d.Enabled = true
		d.Added = mq.ring.Added()
		d.Recent, d.Slowest = mq.ring.Snapshot()
	}
	return d, nil
}

// ModelStats returns the serving counters of one model.
func (e *Engine) ModelStats(name string) (Stats, error) {
	mq, err := e.lookup(name)
	if err != nil {
		return Stats{}, err
	}
	return mq.snapshot(), nil
}

// Stats returns a snapshot of every registered model's counters, keyed
// by model name.
func (e *Engine) Stats() map[string]Stats {
	e.mu.Lock()
	queues := append([]*modelQueue(nil), e.order...)
	e.mu.Unlock()
	out := make(map[string]Stats, len(queues))
	for _, mq := range queues {
		out[mq.name] = mq.snapshot()
	}
	return out
}

// AggregateStats sums every model's counters and recomputes latency
// percentiles over the pooled windows — the engine-wide view the
// single-model /stats endpoint exposes.
func (e *Engine) AggregateStats() Stats {
	e.mu.Lock()
	queues := append([]*modelQueue(nil), e.order...)
	e.mu.Unlock()
	var agg Stats
	var lats []float64
	for _, mq := range queues {
		agg.merge(mq.snapshot())
		lats = mq.appendLatencies(lats)
	}
	agg.P50US, agg.P95US, agg.P99US = percentiles(lats)
	return agg
}

// Close stops accepting requests, drains every queue, and waits for
// the executor workers to finish. Rank calls blocked on a full queue
// abort with ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.closing)
	queues := append([]*modelQueue(nil), e.order...)
	e.mu.Unlock()
	// Wait for in-flight enqueues to land or abort, then release the
	// workers to drain the queues and exit.
	for _, mq := range queues {
		mq.senders.Wait()
	}
	close(e.done)
	e.wg.Wait()
}
