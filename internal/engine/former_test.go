package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/stats"
)

// Tests of the batch former's cut rule. They are structural, not timed:
// every policy here has MaxWait an hour, so a former that holds when it
// should not hangs the test, and one that should hold is shown to be
// holding by what it does next (pops a job enqueued after it started),
// not by how long it took.

// hour is a policy whose hold, once started, only the rule can end.
func hour(maxBatch int) batch.Policy { return batch.Policy{MaxBatch: maxBatch, MaxWait: time.Hour} }

// formed is one formBatch result.
type formed struct {
	jobs    []*job
	samples int
}

// formAsync runs formBatch behind a one-sample first job on its own
// goroutine.
func formAsync(mq *modelQueue, f *former) <-chan formed {
	out := make(chan formed, 1)
	go func() {
		jobs, samples, _ := mq.formBatch(liveJob(simpleReq(1)), nil, f)
		out <- formed{jobs, samples}
	}()
	return out
}

// feedHolder enqueues one job and waits until the former has popped it.
// Only a former that is still inside formBatch pops, so returning at all
// proves it was holding.
func feedHolder(t *testing.T, mq *modelQueue) {
	t.Helper()
	mq.q <- liveJob(simpleReq(1))
	waitFor(t, "the holding former to pop the job", func() bool { return len(mq.q) == 0 })
}

// waitFor polls cond, failing the test if it stays false.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFormBatchFreePeerDispatchesAtOnce is the tentpole in one case: a
// partial batch with an idle peer is not held. At the parent this
// waited out MaxWait.
func TestFormBatchFreePeerDispatchesAtOnce(t *testing.T) {
	mq := queueForBatching(hour(8))
	idle := &former{pool: newPool(2, make(chan struct{}))}
	jobs, samples, carry := mq.formBatch(liveJob(simpleReq(1)), nil, idle)
	if len(jobs) != 1 || samples != 1 || carry != nil {
		t.Fatalf("batch = %d jobs / %d samples / carry %v, want 1 / 1 / nil", len(jobs), samples, carry)
	}
	if got := cutCounts(mq); got["free"] != 1 || len(got) != 1 {
		t.Fatalf("cuts = %v, want one free cut", got)
	}
	if idle.timer != nil {
		t.Fatal("a batch that did not hold created the hold timer")
	}
}

// TestFormBatchLoneWorkerNeverHolds: a pool of one has no peer whose
// pass could end a hold, so it dispatches what is queued.
func TestFormBatchLoneWorkerNeverHolds(t *testing.T) {
	mq := queueForBatching(hour(8))
	mq.q <- liveJob(simpleReq(2))
	jobs, samples, _ := mq.formBatch(liveJob(simpleReq(1)), nil, loneFormer())
	if len(jobs) != 2 || samples != 3 {
		t.Fatalf("batch = %d jobs / %d samples, want the backlog: 2 / 3", len(jobs), samples)
	}
	if got := cutCounts(mq); got["free"] != 1 || len(got) != 1 {
		t.Fatalf("cuts = %v, want one free cut", got)
	}
}

// TestFormBatchHoldCutByPassEnd: with every peer in a pass the former
// holds and keeps coalescing; the moment a pass ends it dispatches.
func TestFormBatchHoldCutByPassEnd(t *testing.T) {
	mq := queueForBatching(hour(8))
	busy, _ := holdingFormer(3)
	done := formAsync(mq, busy)
	feedHolder(t, mq)
	busy.pool.leavePass() // one of the two peers finishes
	got := <-done
	if len(got.jobs) != 2 || got.samples != 2 {
		t.Fatalf("batch = %d jobs / %d samples, want the first and the one that joined the hold", len(got.jobs), got.samples)
	}
	if cuts := cutCounts(mq); cuts["free"] != 1 || len(cuts) != 1 {
		t.Fatalf("cuts = %v, want one free cut (a peer came free)", cuts)
	}
}

// TestFormBatchStaleTokenDoesNotCut: a pass-ended token left behind by
// a pass that ended while nobody was holding must not end a later hold
// whose peers are all busy again: the holder re-asks the rule.
func TestFormBatchStaleTokenDoesNotCut(t *testing.T) {
	mq := queueForBatching(hour(8))
	busy, stop := holdingFormer(2)
	busy.pool.passEnded <- struct{}{}
	done := formAsync(mq, busy)
	feedHolder(t, mq)
	waitFor(t, "the stale token to be consumed", func() bool { return len(busy.pool.passEnded) == 0 })
	feedHolder(t, mq) // still holding after the token
	close(stop)
	if got := <-done; len(got.jobs) != 3 {
		t.Fatalf("batch = %d jobs, want 3 (the hold outlived the stale token)", len(got.jobs))
	}
	if cuts := cutCounts(mq); cuts["drain"] != 1 || len(cuts) != 1 {
		t.Fatalf("cuts = %v, want one drain cut", cuts)
	}
}

// TestFormBatchHoldFillsToCap: a hold ends by itself when the batch
// fills.
func TestFormBatchHoldFillsToCap(t *testing.T) {
	mq := queueForBatching(hour(3))
	busy, _ := holdingFormer(2)
	done := formAsync(mq, busy)
	feedHolder(t, mq)
	mq.q <- liveJob(simpleReq(1))
	if got := <-done; len(got.jobs) != 3 || got.samples != 3 {
		t.Fatalf("batch = %d jobs / %d samples, want 3 / 3", len(got.jobs), got.samples)
	}
	if cuts := cutCounts(mq); cuts["full"] != 1 || len(cuts) != 1 {
		t.Fatalf("cuts = %v, want one full cut", cuts)
	}
}

// TestTwoFormersNeverBothHold: a former is not in a pass, so two
// workers forming at once each see the other as free, whatever the rest
// of the pool is doing. If either held, this test would hang.
func TestTwoFormersNeverBothHold(t *testing.T) {
	mq := queueForBatching(hour(8))
	p := newPool(3, make(chan struct{}))
	p.inPass.Store(1) // the third worker is in a pass that never ends
	a := formAsync(mq, &former{pool: p})
	b := formAsync(mq, &former{pool: p})
	<-a
	<-b
	if cuts := cutCounts(mq); cuts["free"] != 2 || len(cuts) != 1 {
		t.Fatalf("cuts = %v, want two free cuts", cuts)
	}
}

// TestHoldTimerReused: the hold timer is created on a worker's first
// hold and re-armed afterwards, and a MaxWait cut is counted as one.
func TestHoldTimerReused(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Millisecond})
	busy, _ := holdingFormer(2)
	mq.formBatch(liveJob(simpleReq(1)), nil, busy)
	first := busy.timer
	mq.formBatch(liveJob(simpleReq(1)), nil, busy)
	if first == nil || busy.timer != first {
		t.Fatal("second hold did not reuse the first hold's timer")
	}
	if cuts := cutCounts(mq); cuts["wait"] != 2 || len(cuts) != 1 {
		t.Fatalf("cuts = %v, want two wait cuts", cuts)
	}
}

// TestSequentialRankNeverWaits pins the phase-lock fix end to end: one
// caller at a time on an idle two-worker engine always finds a free
// executor, so no request is dispatched by the MaxWait timer. (A hold
// can still start, when the next request lands before the previous
// worker has left its pass; that worker leaving is what ends it, and an
// hour's MaxWait would hang the test otherwise.)
func TestSequentialRankNeverWaits(t *testing.T) {
	m := testModel(t)
	e := testEngine(t, Options{Workers: 2, QueueDepth: 16, MaxBatch: 32, MaxWait: time.Hour, IntraOpWorkers: 1})
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	const n = 200
	req := model.NewRandomRequest(m.Config, 4, stats.NewRNG(1))
	for i := 0; i < n; i++ {
		if _, err := e.Rank(context.Background(), "m", req); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := e.ModelStats("m")
	if st.Cuts["free"] != n || len(st.Cuts) != 1 {
		t.Fatalf("cuts = %v, want %d free cuts and nothing else", st.Cuts, n)
	}
}

// parkWorkers parks the worker of a one-worker engine inside a forward
// pass of the named model: it installs a serve tap that blocks, ranks
// one plug request and returns once the pass is inside the tap.
// Requests admitted after that queue up behind the parked worker, which
// is how the coalescing tests build a backlog deterministically.
// release lets the pass finish.
func parkWorkers(t *testing.T, e *Engine, name string, plug model.Request) (release func()) {
	t.Helper()
	if e.opts.Workers != 1 {
		t.Fatalf("parkWorkers wants one worker, engine has %d", e.opts.Workers)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	e.SetServeTap(func(string, model.Request, []float32) {
		select {
		case <-gate: // released: later passes run straight through
		default:
			entered <- struct{}{}
			<-gate
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.Rank(context.Background(), name, plug); err != nil {
			t.Errorf("plug request: %v", err)
		}
	}()
	<-entered
	return func() {
		close(gate)
		<-done
	}
}

// waitQueued waits until n jobs sit in the named model's queue.
func waitQueued(t *testing.T, e *Engine, name string, n int) {
	t.Helper()
	mq, err := e.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the backlog to build", func() bool { return len(mq.q) == n })
}

// settledGoroutines reads runtime.NumGoroutine once the count has held
// still for a few reads, so a goroutine an earlier test left exiting
// does not count against this one.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestEngineStartsNoGoroutines: the executor is a pool of tokens that
// requests run passes on, not of goroutines. An idle engine, models
// registered, runs no goroutine of its own, and Close leaves none.
func TestEngineStartsNoGoroutines(t *testing.T) {
	m := testModel(t)
	before := settledGoroutines()
	e, err := NewEngine(Options{Workers: 4, QueueDepth: 16, MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(); got != before {
		t.Fatalf("%d goroutines after NewEngine and Register, %d before", got, before)
	}
	e.Close()
	if got := settledGoroutines(); got != before {
		t.Fatalf("%d goroutines after Close, %d before NewEngine", got, before)
	}
}

// TestAbandonedJobLosesNoToken: a request that gives up while queued
// behind the only token, held by a parked pass, gets ctx.Err() at once
// but leaves its job in the queue: the parked holder returns once its
// own job is delivered, without draining the queue, so Stats.Sheds
// reads 0 until the next holder pops the job, and 1 after. The queue
// holds one job, so the next request finds it full of the abandoned one
// with no caller left to run it, and must make room itself (enqueue);
// the abandoned job is shed at pop, no pass runs for it, and the token
// is still there for every request after.
func TestAbandonedJobLosesNoToken(t *testing.T) {
	m := testModel(t)
	e := testEngine(t, Options{Workers: 1, QueueDepth: 1, MaxBatch: 8, MaxWait: time.Hour, IntraOpWorkers: 1})
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	mq, _ := e.lookup("m")
	req := model.NewRandomRequest(m.Config, 2, stats.NewRNG(1))
	release := parkWorkers(t, e, "m", req)
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := e.Rank(ctx, "m", req)
		gaveUp <- err
	}()
	waitQueued(t, e, "m", 1)
	cancel()
	if err := <-gaveUp; !errors.Is(err, ctx.Err()) {
		t.Fatalf("abandoned request: err = %v, want ctx.Err() = %v", err, ctx.Err())
	}
	release()
	if st, _ := e.ModelStats("m"); st.Sheds != 0 || len(mq.q) != 1 {
		t.Fatalf("after the parked pass: sheds %d, queued %d; want 0 and 1 (the abandoned job waits for the next holder)", st.Sheds, len(mq.q))
	}
	want := m.CTR(req)
	for i := 0; i < 3; i++ {
		got, err := e.Rank(context.Background(), "m", req)
		if err != nil {
			t.Fatalf("rank %d after the abandoned one: %v", i, err)
		}
		if !ctrEqual(got, want) {
			t.Fatalf("rank %d after the abandoned one scored %v, want %v", i, got, want)
		}
		if i > 0 {
			continue
		}
		st, _ := e.ModelStats("m")
		if st.Sheds != 1 || len(mq.q) != 0 {
			t.Fatalf("after the next request: sheds %d, queued %d; want 1 and 0", st.Sheds, len(mq.q))
		}
		if st.Batches != 2 || st.Samples != 2*int64(req.Batch) {
			t.Fatalf("%d passes over %d samples, want 2 over %d: no pass may run for the abandoned job", st.Batches, st.Samples, 2*req.Batch)
		}
	}
	if st, _ := e.ModelStats("m"); st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1: the abandoned job, shed by the next holder", st.Sheds)
	}
}
