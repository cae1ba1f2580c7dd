package model

import (
	"errors"
	"testing"

	"recsys/internal/tensor"
)

// FuzzValidateRequest throws arbitrary config/request shape
// combinations at the admission validator. The contract under test:
// ValidateRequest never panics, every rejection wraps ErrBadRequest,
// and an accepted request really satisfies the invariants the kernels
// rely on (positive batch, exact ID counts, every ID in table range) —
// so a fuzz-found acceptance of a malformed request fails loudly here
// instead of as an index panic inside a gather kernel.
func FuzzValidateRequest(f *testing.F) {
	// Seeds: a well-formed request, a dense-less model, an oversized ID,
	// a negative batch, and an empty everything.
	f.Add(2, 4, 2, 2, 8, 2, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(1, 0, 0, 1, 4, 1, []byte{0})
	f.Add(3, 2, 2, 1, 4, 2, []byte{250, 0, 1, 2, 3, 4})
	f.Add(-1, 4, 4, 1, 4, 1, []byte{9})
	f.Add(0, 0, 0, 0, 1, 0, []byte{})
	f.Fuzz(func(t *testing.T, batch, denseIn, denseRows, nTables, rows, lookups int, raw []byte) {
		mod := func(v, n int) int {
			if n <= 0 {
				return 0
			}
			v %= n
			if v < 0 {
				v += n
			}
			return v
		}
		// Clamp the shape space so fuzzing explores mismatches, not
		// gigabyte allocations.
		denseIn = mod(denseIn, 5) // 0 disables the dense path
		denseRows = mod(denseRows, 6)
		nTables = mod(nTables, 4)
		rows = 1 + mod(rows, 16)
		lookups = mod(lookups, 4)
		batch = mod(batch, 8) - 1 // includes -1 and 0

		cfg := Config{Name: "fuzz", DenseIn: denseIn}
		for i := 0; i < nTables; i++ {
			cfg.Tables = append(cfg.Tables, TableSpec{Rows: rows, Dim: 4, Lookups: lookups})
		}

		req := Request{Batch: batch}
		byteAt := func(i int) int {
			if len(raw) == 0 {
				return 0
			}
			return int(raw[mod(i, len(raw))])
		}
		if denseRows > 0 {
			cols := denseIn
			if byteAt(0)%4 == 0 {
				cols = mod(byteAt(1), 5) // sometimes the wrong width
			}
			if cols > 0 {
				req.Dense = tensor.New(denseRows, cols)
			}
		}
		// Sometimes the wrong number of ID lists, sometimes the wrong
		// length per list, with IDs that may be negative or out of range.
		nLists := nTables
		if byteAt(2)%3 == 0 {
			nLists = mod(byteAt(3), nTables+2)
		}
		for i := 0; i < nLists; i++ {
			n := 0
			if batch > 0 {
				n = batch * lookups
			}
			if byteAt(4+i)%5 == 0 {
				n = mod(byteAt(5+i), 8)
			}
			ids := make([]int, n)
			for j := range ids {
				ids[j] = byteAt(6+i+j) - 2
			}
			req.SparseIDs = append(req.SparseIDs, ids)
		}

		err := ValidateRequest(cfg, req)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		// Accepted: re-check the kernel-facing invariants directly.
		if req.Batch <= 0 {
			t.Fatalf("accepted non-positive batch %d", req.Batch)
		}
		if cfg.DenseIn > 0 && (req.Dense == nil || req.Dense.Dim(0) != req.Batch || req.Dense.Dim(1) != cfg.DenseIn) {
			t.Fatalf("accepted bad dense shape")
		}
		if len(req.SparseIDs) != len(cfg.Tables) {
			t.Fatalf("accepted %d ID lists for %d tables", len(req.SparseIDs), len(cfg.Tables))
		}
		for ti, ids := range req.SparseIDs {
			if len(ids) != req.Batch*cfg.Tables[ti].Lookups {
				t.Fatalf("accepted table %d with %d IDs", ti, len(ids))
			}
			for _, id := range ids {
				if id < 0 || id >= cfg.Tables[ti].Rows {
					t.Fatalf("accepted out-of-range ID %d (rows %d)", id, cfg.Tables[ti].Rows)
				}
			}
		}
	})
}
