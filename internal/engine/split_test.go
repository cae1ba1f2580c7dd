package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/obs"
	"recsys/internal/stats"
)

// TestSplitEquivalence pins the ordered-merge guarantee: a request
// split across the executor pool (Policy.SplitAbove) returns scores
// BIT-IDENTICAL to the unsplit pass — not merely tolerance-close —
// because chunks write into pre-carved subranges of one result buffer
// and each row's arithmetic is independent of its batchmates.
func TestSplitEquivalence(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 4, QueueDepth: 64, MaxBatch: 1})

	// 57 deliberately not a multiple of any chunk size: the near-equal
	// partition must cover remainder rows exactly once.
	req := model.NewRandomRequest(m.Config, 57, stats.NewRNG(7))

	unsplit, err := e.Rank(context.Background(), "", req)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), unsplit...)

	for _, splitAbove := range []int{8, 16, 56} {
		pol, err := e.Policy(DefaultModelName)
		if err != nil {
			t.Fatal(err)
		}
		pol.SplitAbove = splitAbove
		if err := e.SetPolicy(DefaultModelName, pol); err != nil {
			t.Fatal(err)
		}
		got, err := e.Rank(context.Background(), "", req)
		if err != nil {
			t.Fatalf("SplitAbove=%d: %v", splitAbove, err)
		}
		if len(got) != len(want) {
			t.Fatalf("SplitAbove=%d: %d scores, want %d", splitAbove, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SplitAbove=%d: score %d = %v, unsplit %v (split path not bit-identical)",
					splitAbove, i, got[i], want[i])
			}
		}
	}

	st := defaultStats(t, e)
	if st.Splits != 3 {
		t.Fatalf("Splits = %d, want 3 (one per split rank)", st.Splits)
	}
	// ceil(57/8)=8, ceil(57/16)=4, ceil(57/56)=2 chunks, plus the one
	// unsplit request: each chunk rides the normal path as a request.
	if want := int64(8 + 4 + 2 + 1); st.Requests != want {
		t.Fatalf("Requests = %d, want %d (chunks count individually)", st.Requests, want)
	}
}

// TestSplitAtOrBelowThresholdUnsplit: SplitAbove is strictly "above" —
// a request of exactly SplitAbove samples takes the ordinary path.
func TestSplitAtOrBelowThresholdUnsplit(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1})
	pol, _ := e.Policy(DefaultModelName)
	pol.SplitAbove = 8
	if err := e.SetPolicy(DefaultModelName, pol); err != nil {
		t.Fatal(err)
	}
	req := model.NewRandomRequest(m.Config, 8, stats.NewRNG(3))
	if _, err := e.Rank(context.Background(), "", req); err != nil {
		t.Fatal(err)
	}
	if st := defaultStats(t, e); st.Splits != 0 || st.Requests != 1 {
		t.Fatalf("Splits=%d Requests=%d, want 0/1 for a request at the threshold", st.Splits, st.Requests)
	}
}

// splitEngine returns an engine serving m as its default model with
// its policy splitting requests above splitAbove samples (0: never).
func splitEngine(t *testing.T, m *model.Model, opts Options, splitAbove int) *Engine {
	t.Helper()
	e := defaultEngine(t, m, opts)
	pol, err := e.Policy("")
	if err != nil {
		t.Fatal(err)
	}
	pol.SplitAbove = splitAbove
	if err := e.SetPolicy("", pol); err != nil {
		t.Fatal(err)
	}
	return e
}

// outcomes lists the outcomes of the default model's retained traces,
// oldest first.
func outcomes(t *testing.T, e *Engine) []string {
	t.Helper()
	d, err := e.Traces("")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(d.Recent))
	for i, tr := range d.Recent {
		out[len(out)-1-i] = tr.Outcome
	}
	return out
}

// TestSplitRejectsBadRequest: a split request is validated once, whole,
// before the fan-out, so a malformed oversized request is refused
// exactly as the same request unsplit is — same error text, one
// rejection, one rejected trace — and no chunk is admitted. The bad ID
// sits in the last chunk, where a per-chunk check would have reported
// a chunk-relative index.
func TestSplitRejectsBadRequest(t *testing.T) {
	m := testModel(t)
	opts := Options{Workers: 2, QueueDepth: 16, MaxBatch: 1, TraceRing: 8}
	req := model.NewRandomRequest(m.Config, 32, stats.NewRNG(3))
	ids := req.SparseIDs[1]
	ids[len(ids)-1] = -1 // out of range

	var texts []string
	for _, splitAbove := range []int{0, 4} {
		e := splitEngine(t, m, opts, splitAbove)
		_, err := e.Rank(context.Background(), "", req)
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("SplitAbove=%d: err = %v, want ErrBadRequest", splitAbove, err)
		}
		texts = append(texts, err.Error())
		st := defaultStats(t, e)
		if st.Rejected != 1 || st.Errors != 1 || st.Splits != 0 || st.Sheds != 0 || st.Requests != 0 || st.Batches != 0 {
			t.Fatalf("SplitAbove=%d: %+v, want Rejected 1, Errors 1 and nothing else (no chunk admitted)", splitAbove, st)
		}
		if got := outcomes(t, e); len(got) != 1 || got[0] != obs.OutcomeRejected {
			t.Fatalf("SplitAbove=%d: trace outcomes %v, want one %q", splitAbove, got, obs.OutcomeRejected)
		}
	}
	if texts[0] != texts[1] {
		t.Fatalf("split error %q, unsplit %q", texts[1], texts[0])
	}
}

// TestSplitExpiredContextShedOnce: an oversized request whose context
// is already done is shed at admission, once, before any chunk exists.
func TestSplitExpiredContextShedOnce(t *testing.T) {
	m := testModel(t)
	e := splitEngine(t, m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1, TraceRing: 8}, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := model.NewRandomRequest(m.Config, 32, stats.NewRNG(3))
	if _, err := e.Rank(ctx, "", req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := defaultStats(t, e)
	if st.Sheds != 1 || st.Errors != 1 || st.Splits != 0 || st.Requests != 0 {
		t.Fatalf("%+v, want Sheds 1, Errors 1, Splits 0, Requests 0 (one shed, not one per chunk)", st)
	}
	if got := outcomes(t, e); len(got) != 1 || got[0] != obs.OutcomeShed {
		t.Fatalf("trace outcomes %v, want one %q", got, obs.OutcomeShed)
	}
}

// TestSplitClosedEngine: an oversized request on a closed engine gets
// ErrClosed, like any other.
func TestSplitClosedEngine(t *testing.T) {
	m := testModel(t)
	e := splitEngine(t, m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1}, 4)
	e.Close()
	req := model.NewRandomRequest(m.Config, 32, stats.NewRNG(3))
	if _, err := e.Rank(context.Background(), "", req); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if st := defaultStats(t, e); st.Splits != 0 || st.Errors != 0 {
		t.Fatalf("%+v, want no split and no error counted", st)
	}
}

// TestSplitTracedChunks: on a traced engine each chunk of a valid split
// request seals one ok trace of its own, and its stages tile it. The
// chunks' samples add up to the parent's; the parent leaves no trace of
// its own, and a chunk, a view of an already validated request, spends
// nothing in validation.
func TestSplitTracedChunks(t *testing.T) {
	m := testModel(t)
	e := splitEngine(t, m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1, TraceRing: 8}, 8)
	req := model.NewRandomRequest(m.Config, 30, stats.NewRNG(3))
	if _, err := e.Rank(context.Background(), "", req); err != nil {
		t.Fatal(err)
	}
	d, err := e.Traces("")
	if err != nil {
		t.Fatal(err)
	}
	if d.Added != 4 || len(d.Recent) != 4 {
		t.Fatalf("added %d, retained %d traces, want 4 (one per chunk of ceil(30/8))", d.Added, len(d.Recent))
	}
	samples := 0
	for _, tr := range d.Recent {
		if tr.Outcome != obs.OutcomeOK || tr.Batch > 8 || tr.ExecuteUS <= 0 {
			t.Fatalf("chunk trace: %+v", tr)
		}
		samples += tr.Batch
		if tr.ValidateUS != 0 || tr.QueueWaitUS < 0 || tr.BatchFormUS < 0 {
			t.Fatalf("chunk stages: validate %v, queue %v, form %v", tr.ValidateUS, tr.QueueWaitUS, tr.BatchFormUS)
		}
		if sum := tr.StageSumUS(); sum > tr.TotalUS {
			t.Fatalf("chunk stages (%vµs) exceed end-to-end (%vµs)", sum, tr.TotalUS)
		}
	}
	if samples != req.Batch {
		t.Fatalf("chunk traces hold %d samples, want %d", samples, req.Batch)
	}
	if st := defaultStats(t, e); st.Splits != 1 || st.Requests != 4 || st.Errors != 0 {
		t.Fatalf("%+v, want Splits 1, Requests 4, Errors 0", st)
	}
}

// TestSetPolicyValidation: the mutable-policy surface refuses unknown
// models and invalid policies, normalizes MaxBatch<=0 to 1, and
// round-trips through Policy.
func TestSetPolicyValidation(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 1, QueueDepth: 8, MaxBatch: 4, MaxWait: time.Millisecond})

	if err := e.SetPolicy("nope", batch.Policy{MaxBatch: 2}); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("SetPolicy(unknown) = %v, want ErrModelNotFound", err)
	}
	if _, err := e.Policy("nope"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("Policy(unknown) = %v, want ErrModelNotFound", err)
	}
	if err := e.SetPolicy(DefaultModelName, batch.Policy{MaxBatch: 2, MaxWait: -time.Second}); err == nil {
		t.Fatal("SetPolicy accepted a negative MaxWait")
	}
	if err := e.SetPolicy(DefaultModelName, batch.Policy{MaxBatch: 2, SplitAbove: -1}); err == nil {
		t.Fatal("SetPolicy accepted a negative SplitAbove")
	}

	want := batch.Policy{MaxBatch: 11, MaxWait: 3 * time.Millisecond, SplitAbove: 40}
	if err := e.SetPolicy(DefaultModelName, want); err != nil {
		t.Fatal(err)
	}
	got, err := e.Policy(DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Policy round-trip: %+v != %+v", got, want)
	}

	// MaxBatch 0 means "no batching", i.e. 1 — the same normalization
	// Register applies to Options.MaxBatch.
	if err := e.SetPolicy(DefaultModelName, batch.Policy{MaxBatch: 0}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Policy(DefaultModelName); got.MaxBatch != 1 {
		t.Fatalf("MaxBatch normalized to %d, want 1", got.MaxBatch)
	}
}

// TestSetPolicyRaceHammer flips the batch policy as fast as the CPU
// allows while ranking traffic flows — the -race regression test for
// the policy read race the atomic handle eliminates. Correctness
// check: every request still returns the right scores, because a
// formed batch always runs under ONE coherent policy snapshot.
func TestSetPolicyRaceHammer(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 4, QueueDepth: 128, MaxBatch: 8, MaxWait: 200 * time.Microsecond})

	stop := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		policies := []batch.Policy{
			{MaxBatch: 1},
			{MaxBatch: 32, MaxWait: time.Millisecond},
			{MaxBatch: 8, MaxWait: 100 * time.Microsecond, SplitAbove: 4},
			{MaxBatch: 64, MaxWait: 500 * time.Microsecond, SplitAbove: 16},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.SetPolicy(DefaultModelName, policies[i%len(policies)]); err != nil {
				t.Errorf("SetPolicy: %v", err)
				return
			}
		}
	}()

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g) + 100)
			for i := 0; i < perG; i++ {
				// Mix sizes across the SplitAbove thresholds so both the
				// split and unsplit paths run under flipping policies.
				req := model.NewRandomRequest(m.Config, 1+(g+i)%24, rng)
				want := m.CTR(req)
				got, err := e.Rank(context.Background(), "", req)
				if err != nil {
					t.Errorf("rank: %v", err)
					return
				}
				if !ctrEqual(got, want) {
					t.Errorf("goroutine %d req %d: scores diverged under policy flips", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	flips.Wait()
}
