package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"recsys/internal/batch"
	"recsys/internal/embcache"
	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/shard"
)

// job is one admitted Rank call waiting for an executor worker.
type job struct {
	ctx  context.Context
	req  model.Request
	resp chan jobResult
	// deadline caches ctx's deadline at admission (zero when the
	// context has none), so the batch former can bound its wait without
	// re-querying the context interface per pop.
	deadline time.Time
	// dst, when non-nil, receives the scores (RankInto): the worker
	// appends into dst[:0] instead of allocating a fresh result slice.
	dst []float32

	// tr is the request's lifecycle trace, nil when tracing is off.
	// Every trace-related clock read below is gated on tr != nil, so a
	// disabled trace costs the hot path nothing. enqueuedAt (end of
	// validation) and popAt are two of the boundary timestamps
	// consecutive stages share; passStart reads the third.
	tr         *obs.Trace
	enqueuedAt time.Time
	popAt      time.Time
}

// expired reports whether the job's context is already done — the job
// can no longer be answered in time and must be shed, not executed.
func (j *job) expired() bool { return j.ctx.Err() != nil }

// jobPool recycles job objects (and their one-slot response channels)
// across Rank calls, keeping the steady-state admission path
// allocation-free. Jobs are pooled only by the Rank goroutine after it
// has consumed the response (or aborted before enqueue) — a job
// abandoned on ctx.Done stays with the worker and is dropped to the
// GC, never double-pooled.
var jobPool = sync.Pool{
	New: func() any { return &job{resp: make(chan jobResult, 1)} },
}

// getJob returns a reset pooled job.
func getJob() *job { return jobPool.Get().(*job) }

// putJob clears the job's request state (so pooled jobs retain no
// tensors or traces) and returns it to the pool. The response channel
// is kept: it is empty on every putJob path.
func putJob(j *job) {
	j.ctx = nil
	j.req = model.Request{}
	j.deadline = time.Time{}
	j.dst = nil
	j.tr = nil
	j.enqueuedAt = time.Time{}
	j.popAt = time.Time{}
	jobPool.Put(j)
}

// finish delivers the job's terminal event: it completes the trace
// (queue wait from the recorded timestamps, outcome, total) and sends
// the result. Exactly one finish happens per dequeued job — shed,
// failed, or scored.
func (j *job) finish(mq *modelQueue, res jobResult, outcome string) {
	if j.tr != nil {
		if !j.popAt.IsZero() {
			j.tr.QueueWaitUS = float64(j.popAt.Sub(j.enqueuedAt)) / 1e3
		}
		j.tr.Outcome = outcome
		if res.err != nil {
			j.tr.Err = res.err.Error()
		}
		j.tr.TotalUS = float64(time.Since(j.tr.Start)) / 1e3
		mq.ring.Add(j.tr)
	}
	j.resp <- res
}

type jobResult struct {
	ctr []float32
	err error
}

// served is what a model queue publishes: the model and the swap
// generation it was published as. A value is immutable once stored, so
// a reader that loads it once holds a model and its generation that
// belong together.
type served struct {
	model *model.Model
	gen   uint64
}

// modelQueue is the per-model serving state: the hot-swappable
// published model, a bounded admission queue, the batch-forming policy,
// the trace ring, and serving counters. Executor workers drain queues;
// Rank calls feed them.
type modelQueue struct {
	name   string
	weight int // executor pick weight (≥ 1)

	// policy holds the batch former's bounds behind an atomic pointer:
	// the adaptive scheduling controller retunes it at runtime
	// (Engine.SetPolicy) while executor workers are forming batches,
	// so a direct struct field would be a read/write race. Accessors
	// below are the only touch points; formBatch loads one snapshot
	// per formed batch, so a single dispatch never mixes two policies.
	policy atomic.Pointer[batch.Policy]

	// published is the model and its generation: {m, 1} at
	// registration, {next, gen+1} per Swap. Every reader loads it once
	// per decision, so a forward pass serves exactly one generation.
	published atomic.Pointer[served]
	// swapMu serializes Swap calls: the check, attach and publish of one
	// swap never interleave with another's. Passes never take it.
	swapMu sync.Mutex

	// ring retains the N slowest + N most recent request traces, nil
	// when tracing is disabled (Options.TraceRing == 0). Jobs carry a
	// non-nil trace iff ring is non-nil.
	ring *obs.Ring

	// q is the admission queue. A full queue blocks Rank (admission
	// control / backpressure), exactly like the single-model engine.
	// q is never closed: Unregister and Close stop senders via gone /
	// closing, wait out mq.senders, then drain the channel with
	// failPending — so receivers never observe a closed q, and the
	// batch former's receive needs no ok check.
	q chan *job
	// gone is closed by Unregister so blocked senders and batch
	// formers stop waiting on a removed model.
	gone chan struct{}
	// senders tracks Rank calls between admission and enqueue, so
	// Unregister and Close can drain the queue without racing a
	// late send.
	senders sync.WaitGroup

	// embClient, when non-nil, is the remote embedding tier this model
	// gathers from (ModelOptions.EmbShards); the metrics exposition reads
	// its per-shard counters. embSources holds one gather source per
	// table and embCaches one read-through hot-row cache per table in
	// front of it (nil when Options.EmbCache is off). All three are set
	// at Register and never change: the tier serves the registered
	// shape, which Swap therefore keeps, and its rows never change, so a
	// cached row stays valid across swaps.
	embClient  *shard.Client
	embSources []nn.GatherSource
	embCaches  []*embcache.Concurrent

	counters
}

// buildRowStores creates the per-table gather sources and, when o is
// on, the row caches for a model registered against a remote tier,
// shaped like m's tables. Without a remote tier it does nothing:
// in-process rows are read where they lie.
func (mq *modelQueue) buildRowStores(m *model.Model, o EmbCacheOptions) error {
	if mq.embClient == nil {
		return nil
	}
	mq.embSources = make([]nn.GatherSource, len(m.SLS))
	for i, op := range m.SLS {
		mq.embSources[i] = mq.embClient.Source(i, op.Table.Rows, op.Table.Cols)
	}
	if !o.Enabled() {
		return nil
	}
	mq.embCaches = make([]*embcache.Concurrent, len(m.SLS))
	for i, op := range m.SLS {
		c, err := embcache.NewConcurrent(min(o.RowsPerTable, op.Table.Rows), op.Table.Cols, embCachePolicy, 0)
		if err != nil {
			return err
		}
		mq.embCaches[i] = c
	}
	return nil
}

// attachRowStores points m's SLS ops at the queue's gather sources and
// row caches. m must not be serving unless it already carries them
// (Register attaches before the queue exists to workers, Swap before
// the publish); re-attaching what an op already has writes nothing, so
// a model swapped back in while an older pass still runs on it is safe.
func (mq *modelQueue) attachRowStores(m *model.Model) {
	for i, src := range mq.embSources {
		m.SLS[i].SetRowStore(src)
		if mq.embCaches != nil {
			m.SLS[i].SetRowCache(mq.embCaches[i])
		}
	}
}

// snapshot extends the embedded counters' snapshot with the per-table
// embedding-cache counters.
func (mq *modelQueue) snapshot() Stats {
	st := mq.counters.snapshot()
	if len(mq.embCaches) > 0 {
		st.EmbCache = make([]EmbCacheStats, len(mq.embCaches))
		for i, c := range mq.embCaches {
			ls := c.Stats()
			st.EmbCache[i] = EmbCacheStats{
				Table:     i,
				Capacity:  c.Capacity(),
				Hits:      ls.Hits,
				Misses:    ls.Misses,
				Evictions: ls.Evictions,
				HitRate:   ls.HitRate(),
			}
		}
	}
	return st
}

func newModelQueue(name string, m *model.Model, weight int, policy batch.Policy, depth, traceRing int) *modelQueue {
	mq := &modelQueue{
		name:   name,
		weight: weight,
		ring:   obs.NewRing(traceRing),
		q:      make(chan *job, depth),
		gone:   make(chan struct{}),
	}
	mq.storePolicy(policy)
	mq.counters.init()
	mq.published.Store(&served{model: m, gen: 1})
	return mq
}

// loadPolicy returns the current batch policy by value. Callers that
// make several policy-dependent decisions must load once and reuse the
// copy, so one decision never straddles a concurrent SetPolicy.
func (mq *modelQueue) loadPolicy() batch.Policy { return *mq.policy.Load() }

// storePolicy publishes a new batch policy. The value is copied to a
// fresh allocation, so readers holding the previous pointer keep a
// consistent (if stale) policy.
func (mq *modelQueue) storePolicy(p batch.Policy) { mq.policy.Store(&p) }

// notePop timestamps a traced job's dequeue — the boundary between its
// queue-wait and batch-form stages.
func notePop(j *job) {
	if j.tr != nil {
		j.popAt = time.Now()
	}
}

// tryPop removes one queued job without blocking.
func (mq *modelQueue) tryPop() (*job, bool) {
	select {
	case j := <-mq.q:
		notePop(j)
		return j, true
	default:
		return nil, false
	}
}

// pool is what the executor's workers know about each other, which is
// all a batch former needs to decide a hold: how many workers there
// are, how many are inside a forward pass right now, and a signal that
// a pass has just ended.
type pool struct {
	workers int
	// inPass counts workers inside process. A former is never in a pass
	// itself, so the other workers not in one number
	// workers-1-inPass.
	inPass atomic.Int32
	// passEnded carries one token from a worker leaving process to the
	// former that may be holding. One slot is enough: a hold needs every
	// other worker in a pass, so at most one former holds at a time. The
	// token can be stale (left by a pass that ended while nobody held),
	// which is why a holder re-asks the rule after taking it instead of
	// treating it as the answer.
	passEnded chan struct{}
	// stop is the engine's drain signal.
	stop <-chan struct{}
}

func newPool(workers int, stop <-chan struct{}) *pool {
	return &pool{workers: workers, passEnded: make(chan struct{}, 1), stop: stop}
}

// free is the number of other workers not inside a forward pass, as
// seen by a worker that is forming a batch.
func (p *pool) free() int { return p.workers - 1 - int(p.inPass.Load()) }

// enterPass and leavePass bracket process. The count drops before the
// token is sent, so a holder woken by the token reads the new count.
func (p *pool) enterPass() { p.inPass.Add(1) }

func (p *pool) leavePass() {
	p.inPass.Add(-1)
	select {
	case p.passEnded <- struct{}{}:
	default:
	}
}

// former is one executor worker's side of batch forming: the pool it
// asks before holding, and the hold timer, created on the worker's
// first hold and re-armed for each later one, so a batch that does not
// hold touches no timer at all.
type former struct {
	pool  *pool
	timer *time.Timer
}

// arm starts the hold timer.
func (f *former) arm(d time.Duration) {
	if f.timer == nil {
		f.timer = time.NewTimer(d)
		return
	}
	f.timer.Reset(d)
}

// disarm stops the hold timer when a hold ends, whether or not the
// timer ended it. The drain is non-blocking because the tick may have
// been received already and, depending on the module's Go version, a
// stopped timer's channel either holds an unreceived tick or never
// will; in the first case a tick racing this drain cuts one later hold
// short, which the rule allows (a cut is never wrong, only early).
func (f *former) disarm() {
	if !f.timer.Stop() {
		select {
		case <-f.timer.C:
		default:
		}
	}
}

// cutReason says why a batch stopped growing.
type cutReason int

const (
	// cutFull: the batch reached MaxBatch, the next job would overshoot
	// it (carry), or coalescing is off.
	cutFull cutReason = iota
	// cutFree: the queue ran dry and the rule did not hold — an
	// executor was free (at once, or when a pass ended mid-hold), the
	// pool has one worker, or MaxWait is 0.
	cutFree
	// cutWait: a hold lasted MaxWait.
	cutWait
	// cutDeadline: the oldest job's deadline ended (or forbade) a hold.
	cutDeadline
	// cutDrain: the engine is closing or the model was unregistered.
	cutDrain
	nCutReasons
)

var cutNames = [nCutReasons]string{"full", "free", "wait", "deadline", "drain"}

func (r cutReason) String() string { return cutNames[r] }

// formBatch coalesces queued jobs behind first into one dispatch.
// Queued jobs are always taken greedily, stopping strictly at MaxBatch
// samples. When the queue runs dry with the batch not full, the
// policy's Hold rule decides: dispatch at once unless every other
// executor worker is inside a forward pass; only then hold, for at most
// MaxWait, and ask again each time a pass ends — so no request is held
// while an executor is free, and a one-worker engine never holds. A
// closed stop (or a removed model) cuts a hold short but never abandons
// jobs already taken.
//
// Robustness properties of the request lifecycle:
//
//   - Deadline-aware waiting: a hold never extends past first's
//     deadline — holding a batch open beyond the oldest job's deadline
//     would turn the whole dispatch into shed work.
//   - Pop-time shedding: jobs whose context is already done are failed
//     here, before they can consume a forward pass.
//   - Hard sample cap: a popped job that would push the batch past
//     MaxBatch is returned as carry for the worker to seed the next
//     batch with, so Policy.MaxBatch bounds every dispatch. (A single
//     request larger than MaxBatch still dispatches alone — requests
//     are never split.)
func (mq *modelQueue) formBatch(first *job, buf []*job, f *former) (jobs []*job, samples int, carry *job) {
	// One policy snapshot per formed batch: a SetPolicy racing this
	// dispatch applies to the next batch, never to half of this one.
	pol := mq.loadPolicy()
	jobs = append(buf[:0], first)
	samples = first.req.Batch
	reason := cutFull
	holding := false
	var expiry cutReason // what the hold timer firing means
fill:
	for pol.Enabled() && !pol.Full(samples) {
		next, ok := mq.tryPop()
		if !ok {
			if !pol.Hold(samples, f.pool.workers-1, f.pool.free()) {
				reason = cutFree
				break
			}
			if !holding {
				wait := pol.MaxWait
				expiry = cutWait
				if !first.deadline.IsZero() {
					if rem := time.Until(first.deadline); rem < wait {
						wait, expiry = rem, cutDeadline
					}
				}
				if wait <= 0 {
					reason = expiry
					break
				}
				f.arm(wait)
				holding = true
			}
			select {
			case next = <-mq.q: // q is never closed; see the field comment
				notePop(next)
			case <-f.pool.passEnded:
				continue // take what arrived meanwhile, then ask again
			case <-f.timer.C:
				reason = expiry
				break fill
			case <-f.pool.stop:
				reason = cutDrain
				break fill
			case <-mq.gone:
				reason = cutDrain
				break fill
			}
		}
		if next.expired() {
			mq.shed(next)
			continue
		}
		if samples+next.req.Batch > pol.MaxBatch {
			carry = next
			break
		}
		jobs = append(jobs, next)
		samples += next.req.Batch
	}
	if holding {
		f.disarm()
	}
	mq.recordCut(reason, jobs)
	return jobs, samples, carry
}

// recordCut counts why a batch was cut and, when tracing, writes the
// reason on each member's trace beside its batch-form time.
func (mq *modelQueue) recordCut(reason cutReason, jobs []*job) {
	mq.cuts[reason].Add(1)
	if mq.ring == nil {
		return
	}
	for _, j := range jobs {
		if j.tr != nil {
			j.tr.BatchCut = reason.String()
		}
	}
}

// shed fails a job whose context is already done without running it —
// the deadline-aware load shedding DeepRecSys prescribes: work that
// cannot meet its latency target is dropped at pop time, not after a
// wasted forward pass. The response send never blocks (resp is
// buffered, and the Rank caller has usually already returned on its
// own ctx.Done).
func (mq *modelQueue) shed(j *job) {
	mq.sheds.Add(1)
	j.finish(mq, jobResult{err: j.ctx.Err()}, obs.OutcomeShed)
}

// failPending drains the admission queue and fails every queued job
// with err. Callers must guarantee no concurrent senders (gone closed
// and senders drained).
func (mq *modelQueue) failPending(err error) {
	for {
		j, ok := mq.tryPop()
		if !ok {
			return
		}
		mq.errs.Add(1)
		j.finish(mq, jobResult{err: err}, obs.OutcomeError)
	}
}
