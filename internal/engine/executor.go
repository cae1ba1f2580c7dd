package engine

import (
	"errors"
	"fmt"
	"time"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/obs"
	"recsys/internal/shard"
	"recsys/internal/tensor"
)

// The executor is a pool of Options.Workers tokens, not of goroutines.
// A token is one pass's scratch state; the caller that holds it runs the
// pick → form → process loop on its own goroutine (the one net/http
// gave the request): it picks queues weighted-fairly (smooth weighted
// round-robin), forms a batch with the queue's policy and runs the
// instrumented forward pass. Dividing one socket's cores between
// concurrent passes and intra-op kernel goroutines is the co-location
// structure of the paper's §V-§VI.

// spanTap is the per-token model.SpanObserver: every span always
// lands in the current queue's per-kind accumulators, and when the
// dispatch carries a traced request the spans are additionally
// captured into a reusable buffer for the request traces. One tap per
// token, and one holder per token at a time, so retargeting it per
// dispatch needs no locking and the interface value passed to
// ForwardSpans never allocates.
type spanTap struct {
	counters *counters
	capture  bool
	spans    []obs.Span
}

// OpSpan implements model.SpanObserver.
func (o *spanTap) OpSpan(name string, kind nn.Kind, d time.Duration) {
	o.counters.OpSpan(name, kind, d)
	if o.capture {
		o.spans = append(o.spans, obs.Span{Name: name, Kind: kind.String(), US: float64(d) / 1e3})
	}
}

// workerScratch is one executor token: the reusable state of one pass
// at a time — a tensor arena for every activation of the forward pass,
// the coalesced-request buffers merge refills in place, the span tap
// and the hold timer. Only the goroutine holding the token touches it,
// so no locking — the paper's intra/inter-op split keeps each pass's
// working set private to one holder.
type workerScratch struct {
	arena *tensor.Arena
	tap   spanTap
	order []*modelQueue // pick-order buffer
	batch []*job        // forming-batch buffer, reused across dispatches
	form  former        // this token's view of the pool and its hold timer
	dense []float32     // merged dense features, grown to high-water mark
	ids   [][]int       // per-table merged ID lists, capacities reused
}

// tables returns the per-table ID buffers sized for n tables, reusing
// inner capacities across models of different widths.
func (w *workerScratch) tables(n int) [][]int {
	for len(w.ids) < n {
		w.ids = append(w.ids, nil)
	}
	return w.ids[:n]
}

// pickOrder advances the smooth weighted round-robin state once and
// returns the queues in preference order: the selected queue first,
// then the rest by descending WRR priority. Weighted fairness shapes
// who is *offered* the next dispatch slot; a preferred queue that
// turns out empty costs nothing because the holder just tries the
// next.
func (e *Engine) pickOrder(buf []*modelQueue) []*modelQueue {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf = append(buf[:0], e.order...)
	if len(buf) < 2 {
		return buf
	}
	// Smooth WRR (Nginx-style): raise every queue's current priority
	// by its weight, select the max, charge it the total weight.
	total, best := 0, 0
	for i, mq := range buf {
		mq.wrrCur += mq.weight
		total += mq.weight
		if mq.wrrCur > buf[best].wrrCur {
			best = i
		}
	}
	buf[best].wrrCur -= total
	// Order by current priority, selected queue first. Insertion sort:
	// the co-location fan-out is a handful of models, not thousands.
	buf[0], buf[best] = buf[best], buf[0]
	for i := 2; i < len(buf); i++ {
		for j := i; j > 1 && buf[j].wrrCur > buf[j-1].wrrCur; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// tryPick scans the queues in weighted-fair order and pops the first
// available job, returning its queue.
func (e *Engine) tryPick(s *workerScratch) (*modelQueue, *job) {
	s.order = e.pickOrder(s.order)
	for _, mq := range s.order {
		if j, ok := mq.tryPop(); ok {
			return mq, j
		}
	}
	return nil, nil
}

// run is a token holder's loop: pick a job, form and process its
// batch, repeat. It returns once own is delivered or own's caller gave
// up, or as soon as every queue is dry; own nil runs until then. A
// popped job is always finished by the holder that popped it, so a
// caller whose job is still undelivered when the queues run dry can
// give the token back and wait: another holder has its job.
func (e *Engine) run(s *workerScratch, own *job) {
	for own == nil || (len(own.resp) == 0 && own.ctx.Err() == nil) {
		mq, j := e.tryPick(s)
		if j == nil {
			return
		}
		e.dispatch(mq, j, s)
	}
}

// dispatch forms batches behind first and processes them. A job the
// batch former popped but could not admit without overshooting the
// sample cap (carry) seeds the next batch, so no popped job is ever
// lost and Policy.MaxBatch is a hard bound. An expired first is shed
// at pop time — before any batch-forming wait or forward pass.
func (e *Engine) dispatch(mq *modelQueue, first *job, scratch *workerScratch) {
	for first != nil {
		if first.expired() {
			mq.shed(first)
			return
		}
		jobs, samples, carry := mq.formBatch(first, scratch.batch, &scratch.form)
		scratch.batch = jobs[:0]
		e.pool.enterPass()
		e.process(mq, jobs, samples, scratch)
		e.pool.leavePass()
		first = carry
	}
}

// deliver copies one job's score rows (into its RankInto buffer when
// it has one), stamps the trace's execute stage, and finishes the job.
func deliver(mq *modelQueue, j *job, rows []float32, execUS float64, spans []obs.Span, batchSamples int) {
	if j.tr != nil {
		j.tr.ExecuteUS = execUS
		j.tr.BatchSamples = batchSamples
		if len(spans) > 0 {
			j.tr.Ops = append([]obs.Span(nil), spans...)
		}
	}
	j.finish(mq, jobResult{ctr: append(j.dst[:0], rows...)}, obs.OutcomeOK)
}

// fail finishes one job with an execution error.
func fail(mq *modelQueue, j *job, err error) {
	j.finish(mq, jobResult{err: err}, obs.OutcomeError)
}

// process runs one coalesced forward pass and distributes the results.
func (e *Engine) process(mq *modelQueue, jobs []*job, samples int, scratch *workerScratch) {
	// Shed requests whose context expired between pop and processing.
	// The batch's deadline — propagated into remote embedding gathers —
	// is the earliest deadline of any surviving job: finishing later
	// than that turns at least one job into shed work.
	live := jobs[:0]
	traced := false
	var deadline time.Time
	for _, j := range jobs {
		if j.expired() {
			mq.shed(j)
			continue
		}
		if j.tr != nil {
			traced = true
		}
		if !j.deadline.IsZero() && (deadline.IsZero() || j.deadline.Before(deadline)) {
			deadline = j.deadline
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	// One load of the published model: the whole pass runs on it, even
	// if a Swap publishes the next one meanwhile.
	m := mq.published.Load().model
	merged, out, execUS, spans, err := e.forward(mq, m, live, traced, scratch, deadline)
	if err != nil {
		for _, j := range live {
			fail(mq, j, err)
		}
		return
	}
	// The serve tap observes the coalesced pass before results are
	// delivered; merged and the scores alias the token's scratch, valid only
	// during the call.
	if tap := e.serveTap.Load(); tap != nil {
		(*tap)(mq.name, merged, out.Data())
	}
	off := 0
	data := out.Data()
	for _, j := range live {
		// Read the batch size before deliver: once the response is
		// sent, the Rank goroutine may pool and clear the job.
		n := j.req.Batch
		deliver(mq, j, data[off:off+n], execUS, spans, samples)
		off += n
	}
}

// passStart reads the clock once for a traced pass (zero when no job
// is traced): the instant ends the batch-form stage of every traced
// job — everything since its pop went into holding the batch open and
// merging — and starts the execute stage forward measures, so the two
// abut.
func passStart(traced bool, jobs []*job) time.Time {
	if !traced {
		return time.Time{}
	}
	now := time.Now()
	for _, j := range jobs {
		if j.tr != nil {
			j.tr.BatchFormUS = float64(now.Sub(j.popAt)) / 1e3
		}
	}
	return now
}

// forward merges the jobs' requests and runs the instrumented model
// forward pass on the arena-backed hot path, converting panics into
// ErrInference-wrapped errors. Admission validated every request, so
// merge trusts the shapes; a job that reached the queue some other way
// panics in merge or in a kernel, and fails its pass like any kernel
// fault while the token survives. The recover is airtight against
// intra-op parallelism because every kernel fan-out goes through
// tensor.ParallelFor / tensor.ShardGroup, which re-raise shard panics
// on this goroutine. The returned request aliases the token's merge
// buffers and the tensor its arena; both are valid until the next
// forward on the same token — callers copy rows out per job before
// returning. Per-operator spans always land in the queue's kind
// accumulators; when traced they are additionally captured, with the
// wall-clock execute time since passStart, into the token's reusable
// span buffer, returned as spans. deadline bounds remote embedding
// gathers (zero = none); a dead shard tier panics out of the gather
// with shard.ErrUnavailable, which the recover keeps in the error chain
// so the HTTP front-end can answer 503 instead of 500.
func (e *Engine) forward(mq *modelQueue, m *model.Model, jobs []*job, traced bool, scratch *workerScratch, deadline time.Time) (req model.Request, out *tensor.Tensor, execUS float64, spans []obs.Span, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			if re, ok := r.(error); ok && errors.Is(re, shard.ErrUnavailable) {
				err = fmt.Errorf("%w: %w", ErrInference, re)
				return
			}
			err = fmt.Errorf("%w: %v", ErrInference, r)
		}
	}()
	req = merge(m.Config, jobs, scratch)
	start := passStart(traced, jobs)
	scratch.arena.Reset()
	scratch.tap.counters = &mq.counters
	scratch.tap.capture = traced
	scratch.tap.spans = scratch.tap.spans[:0]
	out = m.ForwardDeadline(req, scratch.arena, e.opts.IntraOpWorkers, &scratch.tap, deadline)
	if traced {
		execUS = float64(time.Since(start)) / 1e3
		spans = scratch.tap.spans
	}
	mq.batchHist.Observe(int64(req.Batch))
	return req, out, execUS, spans, nil
}

// merge concatenates requests into one, reusing the token's dense and
// per-table ID buffers so steady-state coalescing does not allocate. A
// lone job's request passes through as it is. Every request was shaped
// against the model at admission (and Swap keeps that shape), so merge
// indexes by those shapes without checking them again. The returned
// request aliases scratch and is valid until the next merge on the
// same token.
func merge(cfg model.Config, jobs []*job, scratch *workerScratch) model.Request {
	if len(jobs) == 1 {
		return jobs[0].req
	}
	total := 0
	for _, j := range jobs {
		total += j.req.Batch
	}
	out := model.Request{Batch: total}
	if cfg.DenseIn > 0 {
		need := total * cfg.DenseIn
		if cap(scratch.dense) < need {
			scratch.dense = make([]float32, need)
		}
		out.Dense = tensor.FromSlice(scratch.dense[:need], total, cfg.DenseIn)
		row := 0
		for _, j := range jobs {
			for b := 0; b < j.req.Batch; b++ {
				copy(out.Dense.Row(row), j.req.Dense.Row(b))
				row++
			}
		}
	}
	tables := scratch.tables(len(cfg.Tables))
	out.SparseIDs = tables
	for ti := range cfg.Tables {
		ids := tables[ti][:0]
		if need := total * cfg.Tables[ti].Lookups; cap(ids) < need {
			ids = make([]int, 0, need)
		}
		for _, j := range jobs {
			ids = append(ids, j.req.SparseIDs[ti]...)
		}
		tables[ti] = ids
	}
	return out
}
