// Package batch holds the dynamic-batching dispatch policy shared by
// the discrete-event serving simulator (internal/server) and the real
// concurrent inference engine (internal/engine). Both tiers coalesce
// single requests into larger forward passes — the batching lever of
// the paper's §III — and both must answer the same two questions: when
// is a forming batch full (Full), and is a partial batch worth holding
// open (Hold)? A batch is worth waiting for only when there is a queue
// to form it from (DeepRecSys), so the answer to the second depends on
// the executor pool, not on the clock alone: a former holds only while
// every other worker is inside a forward pass, for at most MaxWait.
// Keeping the rule in one type guarantees the simulated and real batch
// formers cannot drift apart.
package batch

import (
	"fmt"
	"time"
)

// Policy bounds one model's batch former: coalesce queued requests
// until the batch reaches MaxBatch items, the queue runs dry with an
// executor free, or a hold under load has lasted MaxWait, whichever
// comes first (see Hold).
type Policy struct {
	// MaxBatch is the largest coalesced batch, in items (queries for
	// the simulator, samples for the real engine). 1 disables
	// coalescing.
	MaxBatch int
	// MaxWait is the longest a partial batch is held open while every
	// other executor worker (token, in the engine) is busy; with one
	// free nothing is held at all. 0 never holds — only requests already queued (or arriving
	// at the same instant, for the simulator) share a batch.
	MaxWait time.Duration
	// SplitAbove, when positive, splits requests carrying more than
	// this many items into near-equal chunks dispatched independently
	// across the executor pool and merged back in order — DeepRecSys's
	// query splitting, which caps the work any single forward pass does
	// for one oversized candidate set. 0 disables splitting. Only the
	// real engine splits; the simulator ignores the field.
	SplitAbove int
}

// Validate checks the policy bounds.
func (p Policy) Validate() error {
	if p.MaxBatch <= 0 {
		return fmt.Errorf("batch: MaxBatch must be positive, got %d", p.MaxBatch)
	}
	if p.MaxWait < 0 {
		return fmt.Errorf("batch: negative MaxWait %v", p.MaxWait)
	}
	if p.SplitAbove < 0 {
		return fmt.Errorf("batch: negative SplitAbove %d", p.SplitAbove)
	}
	return nil
}

// Enabled reports whether the policy coalesces at all.
func (p Policy) Enabled() bool { return p.MaxBatch > 1 }

// Full reports whether a forming batch of n items must dispatch.
func (p Policy) Full(n int) bool { return n >= p.MaxBatch }

// WaitUS is MaxWait in the simulator's microsecond clock.
func (p Policy) WaitUS() float64 { return float64(p.MaxWait) / float64(time.Microsecond) }

// Hold is the cut rule both batch formers share. A former first takes
// everything already queued; when the queue runs dry with n items
// taken it asks Hold, and dispatches at once unless Hold says to wait.
// others is the number of executor workers (the engine's tokens)
// besides the asker and free
// is how many of those are not inside a forward pass at this instant.
//
// The rule is work-conserving: hold only while every other worker is
// busy, because only then does waiting cost nothing (the batch could
// not have started sooner on a free executor) and only then is there a
// backlog about to arrive that a bigger batch amortizes. A pool of one
// has no peer whose pass could end the hold, so it never holds: its
// batches come from the backlog that builds while it executes. The
// caller bounds a hold by MaxWait and re-asks whenever a pass ends, so
// MaxWait is a cap paid under load, not a toll on every request.
func (p Policy) Hold(n, others, free int) bool {
	return p.Enabled() && !p.Full(n) && p.MaxWait > 0 && others > 0 && free == 0
}
