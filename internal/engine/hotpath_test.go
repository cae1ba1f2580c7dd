package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"recsys/internal/model"
	"recsys/internal/stats"
)

func TestResolveIntraOpDefault(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	got := resolveIntraOp(Options{Workers: 1})
	if got != procs {
		t.Fatalf("1 worker: intra-op %d, want %d", got, procs)
	}
	// More workers than cores: never drop below one goroutine per pass.
	if got := resolveIntraOp(Options{Workers: 4 * procs}); got != 1 {
		t.Fatalf("oversubscribed: intra-op %d, want 1", got)
	}
	// Explicit setting wins.
	if got := resolveIntraOp(Options{Workers: 1, IntraOpWorkers: 3}); got != 3 {
		t.Fatalf("explicit: intra-op %d, want 3", got)
	}
}

// TestMergeBufferReuse drives many coalesced batches through one
// worker and checks results stay bit-identical to direct execution —
// the merge scratch (dense + per-table IDs) is reused across batches,
// so any aliasing bug between consecutive batches would corrupt CTRs.
// Each round queues its requests behind a parked pass, so each round is
// one coalesced batch.
func TestMergeBufferReuse(t *testing.T) {
	m := testModel(t)
	e := defaultEngine(t, m, Options{Workers: 1, QueueDepth: 64, MaxBatch: 64, MaxWait: 10 * time.Millisecond, IntraOpWorkers: 2})
	const rounds, n = 8, 6
	for round := 0; round < rounds; round++ {
		reqs := make([]model.Request, n)
		wants := make([][]float32, n)
		for i := range reqs {
			reqs[i] = model.NewRandomRequest(m.Config, 1+i%4, stats.NewRNG(uint64(round*100+i+1)))
			wants[i] = m.CTR(reqs[i])
		}
		release := parkWorkers(t, e, DefaultModelName, reqs[0])
		errc := make(chan error, n)
		for i := range reqs {
			go func(i int) {
				got, err := e.Rank(context.Background(), "", reqs[i])
				if err == nil && !ctrEqual(got, wants[i]) {
					err = errMismatch
				}
				errc <- err
			}(i)
		}
		waitQueued(t, e, DefaultModelName, n)
		release()
		for i := 0; i < n; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	// Per round: the plug's pass, then one pass for the whole backlog.
	if st := defaultStats(t, e); st.Batches != 2*rounds {
		t.Fatalf("%d passes for %d rounds of %d requests (avg batch %.2f): the backlog did not coalesce, reuse path unexercised", st.Batches, rounds, n, st.AvgBatch())
	}
}

var errMismatch = errString("engine test: served CTR differs from direct forward")

type errString string

func (e errString) Error() string { return string(e) }
