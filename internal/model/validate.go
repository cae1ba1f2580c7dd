package model

import (
	"errors"
	"fmt"
)

// ErrBadRequest is the sentinel wrapped by every admission-time
// request-validation failure: callers classify with
// errors.Is(err, ErrBadRequest) and map the family to one client-fault
// response (HTTP 400) without inspecting messages. The serving engine
// runs ValidateRequest before enqueueing a request, so malformed inputs
// are refused at the door with a typed error instead of panicking a
// shared forward pass deep inside a kernel.
var ErrBadRequest = errors.New("model: bad request")

// ValidateRequest is the admission check: the structural fit of req
// against cfg (batch positivity, dense-matrix shape, sparse-input count,
// per-table ID counts), then a range scan of every sparse ID against its
// table's row count — the check that keeps an out-of-range ID from
// reaching a gather kernel. O(total IDs) with no allocations on
// success; all failures wrap ErrBadRequest.
func ValidateRequest(cfg Config, req Request) error {
	if req.Batch <= 0 {
		return fmt.Errorf("%w: non-positive batch %d", ErrBadRequest, req.Batch)
	}
	if cfg.DenseIn > 0 {
		if req.Dense == nil {
			return fmt.Errorf("%w: model %s requires dense features", ErrBadRequest, cfg.Name)
		}
		if req.Dense.Rank() != 2 || req.Dense.Dim(0) != req.Batch || req.Dense.Dim(1) != cfg.DenseIn {
			return fmt.Errorf("%w: dense shape %v, want [%d %d]", ErrBadRequest, req.Dense.Shape(), req.Batch, cfg.DenseIn)
		}
	} else if req.Dense != nil {
		return fmt.Errorf("%w: model %s has no dense path", ErrBadRequest, cfg.Name)
	}
	if len(req.SparseIDs) != len(cfg.Tables) {
		return fmt.Errorf("%w: %d sparse inputs, want %d", ErrBadRequest, len(req.SparseIDs), len(cfg.Tables))
	}
	for ti, ids := range req.SparseIDs {
		if want := req.Batch * cfg.Tables[ti].Lookups; len(ids) != want {
			return fmt.Errorf("%w: table %d has %d IDs, want %d", ErrBadRequest, ti, len(ids), want)
		}
	}
	for ti, ids := range req.SparseIDs {
		rows := cfg.Tables[ti].Rows
		for i, id := range ids {
			if id < 0 || id >= rows {
				return fmt.Errorf("%w: table %d ID %d at index %d out of range [0,%d)", ErrBadRequest, ti, id, i, rows)
			}
		}
	}
	return nil
}
