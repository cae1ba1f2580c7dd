// Package obs is the request-lifecycle observability layer of the
// serving engine: per-request traces (trace.go, ring.go), fixed-bucket
// latency histograms (hist.go), and Prometheus text exposition
// (prom.go).
//
// The paper's tail-latency analysis (§VII, Figures 5 and 13) and
// DeepRecSys both argue that p99 diagnosis needs to know where a
// request's time went — queue wait vs. batch formation vs. per-operator
// execution — not just the end-to-end number. A Trace records exactly
// that decomposition for one request; the engine retains the N slowest
// and N most recent traces per model and serves them over
// GET /trace/{model}.
//
// Everything here is designed to stay off the inference hot path: with
// tracing disabled the engine performs no clock reads and no
// allocations for this package, and the histograms are plain atomic
// adds.
package obs

import "time"

// Terminal outcomes of a traced request.
const (
	// OutcomeOK marks a request that completed a forward pass and
	// returned scores.
	OutcomeOK = "ok"
	// OutcomeShed marks a deadline shed: the request's context expired
	// before a worker ran it, so it was dropped without a forward pass.
	OutcomeShed = "shed"
	// OutcomeRejected marks an admission-validation refusal (the
	// ErrBadRequest family): the request never entered the queue.
	OutcomeRejected = "rejected"
	// OutcomeError marks an internal failure: a recovered forward-pass
	// panic, a merge fallback error, or an engine shutdown racing the
	// request.
	OutcomeError = "error"
)

// Span is one per-operator execution interval inside a traced
// request's forward pass, from model.SpanObserver.
type Span struct {
	// Name is the operator instance, e.g. "rmc1/bottom" or "rmc1/emb3".
	Name string `json:"name"`
	// Kind is the operator class (FC, SparseLengthsSum, ...).
	Kind string `json:"kind"`
	// US is the operator's execution time in microseconds.
	US float64 `json:"us"`
}

// Trace is the lifecycle record of one request through the serving
// engine: admission → validate → queue wait → batch formation →
// execute → reply, or one of the early terminal events (shed,
// rejected). Stage durations are microseconds. Consecutive stages share
// their boundary timestamp, so they tile the request from admission to
// the end of the forward pass with no gap: every stage is ≥ 0 and
// ValidateUS+QueueWaitUS+BatchFormUS+ExecuteUS ≤ TotalUS by
// construction (the remainder is response delivery).
//
// A Trace is mutated only by the goroutine currently carrying its
// request; once it reaches a Ring it is immutable and may be read
// freely.
type Trace struct {
	// Model is the registry name the request was ranked against.
	Model string `json:"model"`
	// Batch is the request's own sample count.
	Batch int `json:"batch"`
	// Start is the admission timestamp.
	Start time.Time `json:"start"`
	// Outcome is the terminal event: ok, shed, rejected, or error.
	Outcome string `json:"outcome"`
	// Err holds the failure message for non-ok outcomes.
	Err string `json:"err,omitempty"`

	// ValidateUS spans admission to the end of request validation.
	ValidateUS float64 `json:"validate_us"`
	// QueueWaitUS spans the end of validation (including any time
	// blocked on a full queue — admission backpressure) to the pop by
	// a batch former.
	QueueWaitUS float64 `json:"queue_wait_us"`
	// BatchFormUS spans the pop to the start of the coalesced forward
	// pass: time spent holding the batch open for peers to join, then
	// taking the pass lock and merging them.
	BatchFormUS float64 `json:"batch_form_us"`
	// BatchCut is why the batch former stopped growing this request's
	// batch: full, free, wait, deadline or drain.
	BatchCut string `json:"batch_cut,omitempty"`
	// ExecuteUS is the coalesced forward pass this request rode in
	// (shared with its batch peers, not divided among them).
	ExecuteUS float64 `json:"execute_us"`
	// TotalUS spans admission to the reply send.
	TotalUS float64 `json:"total_us"`

	// DecodeUS is the HTTP front-end's time parsing the request body
	// and BodyBytes the body's size; both are zero for a request made
	// in process. Ingest ends before admission, where Start is taken,
	// so DecodeUS stands beside the stages: it is part of neither
	// TotalUS nor StageSumUS.
	DecodeUS  float64 `json:"decode_us,omitempty"`
	BodyBytes int     `json:"body_bytes,omitempty"`

	// BatchSamples is the total sample count of the coalesced forward
	// pass (≥ Batch when peers were merged in).
	BatchSamples int `json:"batch_samples,omitempty"`
	// Ops is the per-operator breakdown of the forward pass, in
	// execution order (shared with batch peers, like ExecuteUS).
	Ops []Span `json:"ops,omitempty"`
}

// StageSumUS returns the sum of the abutting per-stage durations — the
// accounted part of TotalUS (the paper's Fig. 13-style breakdown), at
// most TotalUS and in practice within a few percent of it.
func (t *Trace) StageSumUS() float64 {
	return t.ValidateUS + t.QueueWaitUS + t.BatchFormUS + t.ExecuteUS
}
