package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"recsys/internal/batch"
	"recsys/internal/model"
	"recsys/internal/stats"
)

// TestSplitEquivalence pins the ordered-merge guarantee: a request
// split across the executor pool (Policy.SplitAbove) returns scores
// BIT-IDENTICAL to the unsplit pass — not merely tolerance-close —
// because chunks write into pre-carved subranges of one result buffer
// and each row's arithmetic is independent of its batchmates.
func TestSplitEquivalence(t *testing.T) {
	m := testModel(t)
	s, err := New(m, Options{Workers: 4, QueueDepth: 64, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng := s.eng

	// 57 deliberately not a multiple of any chunk size: the near-equal
	// partition must cover remainder rows exactly once.
	req := model.NewRandomRequest(m.Config, 57, stats.NewRNG(7))

	unsplit, err := s.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), unsplit...)

	for _, splitAbove := range []int{8, 16, 56} {
		pol, err := eng.Policy(DefaultModelName)
		if err != nil {
			t.Fatal(err)
		}
		pol.SplitAbove = splitAbove
		if err := eng.SetPolicy(DefaultModelName, pol); err != nil {
			t.Fatal(err)
		}
		got, err := s.Rank(context.Background(), req)
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

	st := s.Stats()
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
	s, err := New(m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng := s.eng
	pol, _ := eng.Policy(DefaultModelName)
	pol.SplitAbove = 8
	if err := eng.SetPolicy(DefaultModelName, pol); err != nil {
		t.Fatal(err)
	}
	req := model.NewRandomRequest(m.Config, 8, stats.NewRNG(3))
	if _, err := s.Rank(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Splits != 0 || st.Requests != 1 {
		t.Fatalf("Splits=%d Requests=%d, want 0/1 for a request at the threshold", st.Splits, st.Requests)
	}
}

// TestSplitRejectsBadRequest: the parent is validated once before the
// fan-out, so a malformed oversized request is one rejection, not a
// per-chunk error storm.
func TestSplitRejectsBadRequest(t *testing.T) {
	m := testModel(t)
	s, err := New(m, Options{Workers: 2, QueueDepth: 16, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng := s.eng
	pol, _ := eng.Policy(DefaultModelName)
	pol.SplitAbove = 4
	if err := eng.SetPolicy(DefaultModelName, pol); err != nil {
		t.Fatal(err)
	}
	req := model.NewRandomRequest(m.Config, 32, stats.NewRNG(3))
	req.SparseIDs[0][0] = -1 // out of range
	if _, err := s.Rank(context.Background(), req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Splits != 0 {
		t.Fatalf("Rejected=%d Splits=%d, want 1/0 (parent rejected before fan-out)", st.Rejected, st.Splits)
	}
}

// TestSetPolicyValidation: the mutable-policy surface refuses unknown
// models and invalid policies, normalizes MaxBatch<=0 to 1, and
// round-trips through Policy.
func TestSetPolicyValidation(t *testing.T) {
	m := testModel(t)
	s, err := New(m, Options{Workers: 1, QueueDepth: 8, MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng := s.eng

	if err := eng.SetPolicy("nope", batch.Policy{MaxBatch: 2}); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("SetPolicy(unknown) = %v, want ErrModelNotFound", err)
	}
	if _, err := eng.Policy("nope"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("Policy(unknown) = %v, want ErrModelNotFound", err)
	}
	if err := eng.SetPolicy(DefaultModelName, batch.Policy{MaxBatch: 2, MaxWait: -time.Second}); err == nil {
		t.Fatal("SetPolicy accepted a negative MaxWait")
	}
	if err := eng.SetPolicy(DefaultModelName, batch.Policy{MaxBatch: 2, SplitAbove: -1}); err == nil {
		t.Fatal("SetPolicy accepted a negative SplitAbove")
	}

	want := batch.Policy{MaxBatch: 11, MaxWait: 3 * time.Millisecond, SplitAbove: 40}
	if err := eng.SetPolicy(DefaultModelName, want); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Policy(DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Policy round-trip: %+v != %+v", got, want)
	}

	// MaxBatch 0 means "no batching", i.e. 1 — the same normalization
	// Register applies to Options.MaxBatch.
	if err := eng.SetPolicy(DefaultModelName, batch.Policy{MaxBatch: 0}); err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.Policy(DefaultModelName); got.MaxBatch != 1 {
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
	s, err := New(m, Options{Workers: 4, QueueDepth: 128, MaxBatch: 8, MaxWait: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng := s.eng

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
			if err := eng.SetPolicy(DefaultModelName, policies[i%len(policies)]); err != nil {
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
				got, err := s.Rank(context.Background(), req)
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
