package scenario

import (
	"math"
	"testing"

	"recsys/internal/model"
	"recsys/internal/tensor"
)

// The checkers that take a *testing.T live in a test file of the
// package itself (the scenario_test files call them as
// scenario.VerifyGenerations): cmd/loadgen links this package for its
// traffic driver and must not link "testing" with it.

// VerifyGenerations proves no request ever saw a mixed state: every
// sampled request's scores must be bitwise identical to what SOME
// single reference generation in the request's in-flight window
// [GenBefore, GenAfter] produces on the hot path. A request that
// matches no whole generation was served by a torn state (one model's
// weights paired with another's, or with rows from the wrong tables) —
// what publishing the model and its generation as one value rules out.
//
// refs maps generation → the exact model published at that generation
// (record them from the swap driver, e.g. Updater.OnSwap). Samples
// whose window includes generations missing from refs fall back to
// "any known generation in window"; a window with no known generation
// at all is an error in the test's bookkeeping and fails loudly.
func VerifyGenerations(t *testing.T, samples []Sample, refs map[uint64]*model.Model) {
	t.Helper()
	if len(samples) == 0 {
		t.Fatal("scenario: no samples to verify")
	}
	arena := tensor.NewArena()
	checked := 0
	for i, s := range samples {
		matched := false
		known := 0
		for g := s.GenBefore; g <= s.GenAfter && !matched; g++ {
			ref, ok := refs[g]
			if !ok {
				continue
			}
			known++
			want := ref.AppendCTR(nil, s.Req, arena, 1)
			matched = bitsEqual(s.Scores, want)
		}
		if known == 0 {
			t.Fatalf("sample %d: no reference model for generation window [%d, %d]", i, s.GenBefore, s.GenAfter)
		}
		if !matched {
			t.Fatalf("sample %d: scores match no single generation in window [%d, %d] — mixed model/cache state", i, s.GenBefore, s.GenAfter)
		}
		checked++
	}
	t.Logf("scenario: %d samples bit-matched a single generation each", checked)
}

// VerifyServedGenerations is VerifyGenerations for A/B runs: each
// sample must bitwise match the reference registered under the model
// name that served it (generation windows don't apply across arms).
func VerifyServedGenerations(t *testing.T, samples []Sample, refs map[string]*model.Model) {
	t.Helper()
	arena := tensor.NewArena()
	for i, s := range samples {
		ref, ok := refs[s.Served]
		if !ok {
			t.Fatalf("sample %d: no reference for served model %q", i, s.Served)
		}
		want := ref.AppendCTR(nil, s.Req, arena, 1)
		if !bitsEqual(s.Scores, want) {
			t.Fatalf("sample %d: scores differ from reference for arm %q", i, s.Served)
		}
	}
}

// bitsEqual compares float32 slices bitwise (NaN-safe, -0 ≠ +0 — the
// strictest possible identity).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
