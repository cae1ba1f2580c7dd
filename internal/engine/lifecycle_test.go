package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// Request-lifecycle hardening tests: admission validation, deadline
// shedding, batch-former bounds, and the crash reproducer for kernel
// panics under intra-op fan-out.

// canceledCtx returns an already-done context.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// liveJob builds a job as Rank would admit it.
func liveJob(req model.Request) *job {
	return &job{ctx: context.Background(), req: req, resp: make(chan jobResult, 1)}
}

// TestAdmissionRejectsMalformed: every malformed-request class is
// refused by Rank with a typed ErrBadRequest before touching the queue,
// the refusals are counted, and the engine keeps serving afterwards.
func TestAdmissionRejectsMalformed(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	m := buildModel(t, cfg, 1)
	e := testEngine(t, DefaultOptions())
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	good := model.NewRandomRequest(cfg, 2, rng)

	bad := []struct {
		name   string
		mutate func(model.Request) model.Request
	}{
		{"zero batch", func(r model.Request) model.Request { r.Batch = 0; return r }},
		{"nil dense", func(r model.Request) model.Request { r.Dense = nil; return r }},
		{"dense shape", func(r model.Request) model.Request { r.Dense = tensor.New(r.Batch, 3); return r }},
		{"table count", func(r model.Request) model.Request { r.SparseIDs = r.SparseIDs[:1]; return r }},
		{"ID count", func(r model.Request) model.Request {
			ids := append([][]int(nil), r.SparseIDs...)
			ids[0] = ids[0][:len(ids[0])-1]
			r.SparseIDs = ids
			return r
		}},
		{"ID out of range", func(r model.Request) model.Request {
			ids := append([][]int(nil), r.SparseIDs...)
			ids[0] = append([]int(nil), ids[0]...)
			ids[0][0] = cfg.Tables[0].Rows // one past the last row
			r.SparseIDs = ids
			return r
		}},
	}
	for i, tc := range bad {
		_, err := e.Rank(context.Background(), "m", tc.mutate(good))
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
		st, _ := e.ModelStats("m")
		if want := int64(i + 1); st.Rejected != want || st.Errors != want {
			t.Fatalf("%s: Rejected=%d Errors=%d, want both %d", tc.name, st.Rejected, st.Errors, want)
		}
	}

	// The rejections must not have consumed queue slots or wedged a
	// worker: a well-formed request still serves, bit-identically.
	want := m.CTR(good)
	got, err := e.Rank(context.Background(), "m", good)
	if err != nil {
		t.Fatal(err)
	}
	if !ctrEqual(got, want) {
		t.Fatal("served CTR differs from direct execution after rejections")
	}
	st, _ := e.ModelStats("m")
	if st.Requests != 1 || st.Rejected != int64(len(bad)) {
		t.Fatalf("Requests=%d Rejected=%d, want 1 and %d", st.Requests, st.Rejected, len(bad))
	}
}

// TestBadIDsColocatedUnderRace is the tentpole's acceptance scenario:
// with intra-op fan-out enabled, a stream of requests carrying
// out-of-range sparse IDs — the input that previously panicked a gather
// kernel on a bare goroutine and killed the process — must error back
// to its own callers while a co-located model keeps serving
// bit-identical results throughout. Run under -race in tier-1.
func TestBadIDsColocatedUnderRace(t *testing.T) {
	cfgA := model.RMC1Small().Scaled(500)
	cfgB := model.RMC3Small().Scaled(500)
	mA := buildModel(t, cfgA, 1)
	mB := buildModel(t, cfgB, 2)
	e := testEngine(t, Options{
		Workers: 4, QueueDepth: 64, MaxBatch: 16,
		MaxWait: time.Millisecond, IntraOpWorkers: 4,
	})
	if err := e.Register("victim", mA, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("bystander", mB, ModelOptions{}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Attacker: single and batched requests with one ID past the table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := stats.NewRNG(3)
		for i := 0; i < 24; i++ {
			req := model.NewRandomRequest(cfgA, 1+i%8, rng)
			req.SparseIDs[i%len(req.SparseIDs)][0] = cfgA.Tables[i%len(req.SparseIDs)].Rows + i
			_, err := e.Rank(context.Background(), "victim", req)
			if !errors.Is(err, ErrBadRequest) {
				errCh <- errors.New("out-of-range IDs: got " + errText(err) + ", want ErrBadRequest")
				return
			}
		}
	}()
	// Bystander load: must stay correct for the whole attack.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := stats.NewRNG(4)
		for i := 0; i < 24; i++ {
			req := model.NewRandomRequest(cfgB, 1+i%4, rng)
			want := mB.CTR(req)
			got, err := e.Rank(context.Background(), "bystander", req)
			if err != nil {
				errCh <- err
				return
			}
			if !ctrEqual(got, want) {
				errCh <- errors.New("bystander CTR drifted during attack")
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The victim model itself must still serve well-formed requests.
	good := model.NewRandomRequest(cfgA, 2, stats.NewRNG(5))
	if _, err := e.Rank(context.Background(), "victim", good); err != nil {
		t.Fatalf("victim model wedged after attack: %v", err)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestForwardRecoversInjectedKernelPanic exercises the defense in
// depth behind admission validation: malformed jobs injected directly
// into the queue (bypassing Rank, as a future refactor bug might) reach
// the forward pass, panic inside it — in the gather kernel under
// intra-op fan-out, or at the pass's own input check — and come back as
// a typed ErrInference on the job's response channel: worker alive,
// engine serving.
func TestForwardRecoversInjectedKernelPanic(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	m := buildModel(t, cfg, 1)
	e := testEngine(t, Options{
		Workers: 2, QueueDepth: 16, MaxBatch: 8,
		MaxWait: time.Millisecond, IntraOpWorkers: 4,
	})
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	mq := e.queues["m"]
	e.mu.Unlock()

	// Shape-valid, range-invalid: panics in the gather kernel.
	outOfRange := model.NewRandomRequest(cfg, 4, stats.NewRNG(2))
	outOfRange.SparseIDs[0][0] = cfg.Tables[0].Rows + 1
	// One table short: panics before any kernel runs.
	short := model.NewRandomRequest(cfg, 2, stats.NewRNG(4))
	short.SparseIDs = short.SparseIDs[:len(short.SparseIDs)-1]

	for i, tc := range []struct {
		req  model.Request
		want string
	}{
		{outOfRange, "out of range"},
		{short, "sparse inputs"},
	} {
		j := liveJob(tc.req)
		mq.senders.Add(1)
		mq.q <- j
		mq.senders.Done()
		go func() { s := <-e.tokens; e.run(s, nil); e.tokens <- s }()

		select {
		case r := <-j.resp:
			if !errors.Is(r.err, ErrInference) {
				t.Fatalf("injected job %d: err = %v, want ErrInference", i, r.err)
			}
			if !strings.Contains(errText(r.err), tc.want) {
				t.Fatalf("injected job %d: recovered error %v does not say %q", i, r.err, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("injected job %d never answered: worker died or wedged", i)
		}

		// The worker that recovered must still process real work.
		good := model.NewRandomRequest(cfg, 2, stats.NewRNG(3))
		if _, err := e.Rank(context.Background(), "m", good); err != nil {
			t.Fatalf("engine wedged after recovered panic %d: %v", i, err)
		}
	}
}

// queueForBatching returns a standalone modelQueue (no engine, no
// workers competing for its jobs) for direct formBatch tests.
func queueForBatching(pol batch.Policy) *modelQueue {
	return newModelQueue("test", nil, 1, pol, 32, 0)
}

// simpleReq builds a request whose only meaningful field is Batch —
// formBatch never looks past it.
func simpleReq(batch int) model.Request { return model.Request{Batch: batch} }

// loneFormer is the former of a one-worker pool. It never holds:
// formBatch pops everything already queued (greedy path) and returns,
// which keeps the non-full-batch tests deterministic and fast.
func loneFormer() *former { return &former{pool: newPool(1, make(chan struct{}))} }

// holdingFormer is a former whose workers-1 peers are all marked inside
// a forward pass, the one situation in which formBatch holds a partial
// batch; stop is its pool's drain signal.
func holdingFormer(workers int) (f *former, stop chan struct{}) {
	stop = make(chan struct{})
	f = &former{pool: newPool(workers, stop)}
	f.pool.inPass.Store(int32(workers - 1))
	return f, stop
}

// cutCounts reads the queue's cut counters by reason name.
func cutCounts(mq *modelQueue) map[string]int64 { return mq.counters.snapshot().Cuts }

// TestFormBatchHardCap pins the fixed overshoot: a popped job that
// would push the batch past MaxBatch must be carried to the next
// dispatch, not appended.
func TestFormBatchHardCap(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Minute})
	first := liveJob(simpleReq(7))
	next := liveJob(simpleReq(4))
	mq.q <- next
	f := loneFormer()
	jobs, samples, carry := mq.formBatch(first, nil, f)
	if len(jobs) != 1 || samples != 7 {
		t.Fatalf("batch = %d jobs / %d samples, want 1 job / 7 samples", len(jobs), samples)
	}
	if carry != next {
		t.Fatalf("carry = %v, want the popped 4-sample job", carry)
	}
	// The carried job seeds the next batch at full size.
	jobs, samples, carry = mq.formBatch(carry, jobs[:0], f)
	if len(jobs) != 1 || samples != 4 || carry != nil {
		t.Fatalf("carried batch = %d jobs / %d samples / carry %v, want 1 / 4 / nil", len(jobs), samples, carry)
	}
}

// TestFormBatchFillsToCap: jobs that fit exactly are all taken and the
// batch dispatches at precisely MaxBatch samples, without waiting.
func TestFormBatchFillsToCap(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Minute})
	for i := 0; i < 3; i++ {
		mq.q <- liveJob(simpleReq(2))
	}
	start := time.Now()
	busy, _ := holdingFormer(2) // would hold for MaxWait if the batch did not fill
	jobs, samples, carry := mq.formBatch(liveJob(simpleReq(2)), nil, busy)
	if len(jobs) != 4 || samples != 8 || carry != nil {
		t.Fatalf("batch = %d jobs / %d samples / carry %v, want 4 / 8 / nil", len(jobs), samples, carry)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("full batch waited on the timer")
	}
}

// TestFormBatchOversizedSingle: a request larger than MaxBatch is never
// split — it dispatches alone, immediately.
func TestFormBatchOversizedSingle(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Minute})
	busy, _ := holdingFormer(2)
	jobs, samples, carry := mq.formBatch(liveJob(simpleReq(20)), nil, busy)
	if len(jobs) != 1 || samples != 20 || carry != nil {
		t.Fatalf("oversized request: %d jobs / %d samples / carry %v, want 1 / 20 / nil", len(jobs), samples, carry)
	}
}

// TestFormBatchStopUnblocks: q is never closed, so the engine's drain
// signal must cut a hold short — the receive on q would otherwise block
// for MaxWait against a channel nobody will ever send to again. The
// former is really holding (its peer is in a pass that never ends and
// MaxWait is an hour), so only stop can return it.
func TestFormBatchStopUnblocks(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Hour})
	busy, stop := holdingFormer(2)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(stop)
	}()
	jobs, samples, _ := mq.formBatch(liveJob(simpleReq(1)), nil, busy)
	if len(jobs) != 1 || samples != 1 {
		t.Fatalf("batch = %d jobs / %d samples, want the first job alone", len(jobs), samples)
	}
	if got := cutCounts(mq); got["drain"] != 1 || len(got) != 1 {
		t.Fatalf("cuts = %v, want one drain cut", got)
	}
}

// TestFormBatchShedsExpiredQueued: a queued job whose context is done
// is failed at pop time — counted as a shed, answered with its context
// error, and excluded from the batch.
func TestFormBatchShedsExpiredQueued(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Minute})
	dead := &job{ctx: canceledCtx(), req: simpleReq(2), resp: make(chan jobResult, 1)}
	live := liveJob(simpleReq(3))
	mq.q <- dead
	mq.q <- live
	jobs, samples, carry := mq.formBatch(liveJob(simpleReq(2)), nil, loneFormer())
	if len(jobs) != 2 || samples != 5 || carry != nil {
		t.Fatalf("batch = %d jobs / %d samples, want 2 jobs / 5 samples (dead job excluded)", len(jobs), samples)
	}
	if got := mq.sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	select {
	case r := <-dead.resp:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("shed job answered %v, want context.Canceled", r.err)
		}
	default:
		t.Fatal("shed job never answered")
	}
}

// TestFormBatchDeadlineBoundsWait: a hold never extends past the oldest
// job's deadline, even when MaxWait is much longer and the peer never
// comes free.
func TestFormBatchDeadlineBoundsWait(t *testing.T) {
	mq := queueForBatching(batch.Policy{MaxBatch: 8, MaxWait: time.Hour})
	busy, _ := holdingFormer(2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	first := &job{ctx: ctx, req: simpleReq(1), resp: make(chan jobResult, 1), deadline: deadline}
	jobs, samples, _ := mq.formBatch(first, nil, busy)
	if len(jobs) != 1 || samples != 1 {
		t.Fatalf("batch = %d jobs / %d samples, want the deadline job alone", len(jobs), samples)
	}
	if got := cutCounts(mq); got["deadline"] != 1 || len(got) != 1 {
		t.Fatalf("cuts = %v, want one deadline cut", got)
	}
	if time.Now().Before(deadline) {
		t.Fatal("hold was cut before the deadline it should have been clamped to")
	}
}

// TestRankShedsExpiredAtAdmission: a request arriving with an
// already-done context is dropped before validation, queueing, or any
// forward pass, and counted as both a shed and an error.
func TestRankShedsExpiredAtAdmission(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	m := buildModel(t, cfg, 1)
	e := testEngine(t, DefaultOptions())
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	req := model.NewRandomRequest(cfg, 1, stats.NewRNG(1))
	_, err := e.Rank(canceledCtx(), "m", req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st, _ := e.ModelStats("m")
	if st.Sheds != 1 || st.Errors != 1 || st.Batches != 0 {
		t.Fatalf("Sheds=%d Errors=%d Batches=%d, want 1, 1, 0", st.Sheds, st.Errors, st.Batches)
	}
}

// TestProcessShedsExpired: jobs whose deadline lapsed between pop and
// processing are shed without a forward pass.
func TestProcessShedsExpired(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	mq := queueForBatching(batch.Policy{MaxBatch: 8})
	scratch := &workerScratch{arena: tensor.NewArena()}
	dead := &job{ctx: canceledCtx(), req: simpleReq(1), resp: make(chan jobResult, 1)}
	e.process(mq, []*job{dead}, 1, scratch)
	if got := mq.sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	if got := mq.batchHist.Snapshot().Count; got != 0 {
		t.Fatalf("batches = %d, want 0 (no forward pass for shed work)", got)
	}
	select {
	case r := <-dead.resp:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("shed job answered %v, want context.Canceled", r.err)
		}
	default:
		t.Fatal("shed job never answered")
	}
}

// TestRankWithDeadlineStillServes: a generous deadline propagates
// through admission and batch forming without shedding live work.
func TestRankWithDeadlineStillServes(t *testing.T) {
	cfg := model.RMC1Small().Scaled(500)
	m := buildModel(t, cfg, 1)
	e := testEngine(t, DefaultOptions())
	if err := e.Register("m", m, ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := model.NewRandomRequest(cfg, 2, stats.NewRNG(1))
	want := m.CTR(req)
	got, err := e.Rank(ctx, "m", req)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatal("deadline-carrying request served wrong CTR")
		}
	}
	st, _ := e.ModelStats("m")
	if st.Sheds != 0 {
		t.Fatalf("sheds = %d for a live request, want 0", st.Sheds)
	}
}
