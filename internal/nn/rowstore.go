package nn

import (
	"fmt"
	"time"

	"recsys/internal/tensor"
)

// RowStore is what a shard server serves rows from: somewhere a row ID
// can be materialized as fp32 values (LocalStore — fp32 copy or int8
// dequant). Implementations must be safe for concurrent readers: a
// server answers many connections against one store.
type RowStore interface {
	// Rows is the table height; IDs are validated against it upstream.
	Rows() int
	// Cols is the row width in fp32 elements.
	Cols() int
	// ReadRow materializes row id into dst (len Cols): the exact fp32
	// row, or the deterministic int8 dequantization — bit-identical to
	// what gatherLocal accumulates.
	ReadRow(id int64, dst []float32)
}

// GatherSource is what the remote tier presents to an op
// (internal/shard): asynchronous batched fetch, one dispatch for a
// whole miss list (fanned out per shard under the hood) instead of one
// call per row, overlappable with dense compute between Begin and
// Wait. The source selects the gather: an op without one reads its own
// tables in place (gatherLocal); the planned-gather machinery (dedup,
// sorted staging, read-through hot-row cache) runs only above a
// GatherSource, where a row costs an RPC. Its rows are fixed for the
// life of the source, so a fetched row may be cached without a
// coherence check.
type GatherSource interface {
	// Rows is the table height.
	Rows() int
	// Cols is the row width in fp32 elements.
	Cols() int
	// BeginGather dispatches an asynchronous fetch of rows ids[i] into
	// dst.Row(int(dstRows[i])). ids aliases plan scratch and is only
	// valid until the returned gather's Wait returns. A zero deadline
	// means no caller deadline; implementations may still bound the
	// fetch with their own timeouts.
	BeginGather(ids []int64, dstRows []int32, dst *tensor.Tensor, deadline time.Time) PendingGather
}

// PendingGather is one in-flight BeginGather.
type PendingGather interface {
	// Wait blocks until every requested row is written into dst (or
	// the fetch failed). The bool is always false, since a source's
	// rows never change; the two-value shape stays because the system
	// benchmark (bench/) compiles against it.
	Wait() (bool, error)
}

// localStore adapts an SLSOp's in-process tables to RowStore: the fp32
// table is the source of truth, with the optional row-wise int8
// representation taking over serving reads. It is a type-converted
// view of the op itself, so attaching Quant after construction is
// still observed and the interface value costs no allocation.
type localStore SLSOp

// Rows implements RowStore.
func (t *localStore) Rows() int { return t.Table.Rows }

// Cols implements RowStore.
func (t *localStore) Cols() int { return t.Table.Cols }

// ReadRow implements RowStore: int8 dequant when the op serves a
// quantized table, exact fp32 copy otherwise.
func (t *localStore) ReadRow(id int64, dst []float32) {
	if t.Quant != nil {
		t.Quant.Row(int(id), dst)
		return
	}
	cols := t.Table.Cols
	w := t.Table.W.Data()
	copy(dst, w[int(id)*cols:(int(id)+1)*cols])
}

// LocalStore returns the op's in-process tables as a RowStore — the
// single-process "local shard" implementation, and what a shard server
// serves rows from.
func (s *SLSOp) LocalStore() RowStore { return (*localStore)(s) }

// SetRowStore redirects the op's gathers to the remote tier gs (nil
// restores the in-process tables, and detaches the row cache with the
// tier it fronted): ForwardEx switches from reading rows in place to
// the asynchronous planned gather. Like SetRowCache, the op must not be
// serving when the store changes, and re-attaching the store it already
// has writes nothing: the engine attaches its per-table stores before a
// model is published, and again, as a no-op, when a model it served
// before is swapped back in.
func (s *SLSOp) SetRowStore(gs GatherSource) {
	if gs == s.remote {
		return
	}
	if gs == nil {
		s.remote, s.cache = nil, nil
		return
	}
	if gs.Cols() != s.Table.Cols {
		panic(fmt.Sprintf("nn: row store width %d does not match table width %d", gs.Cols(), s.Table.Cols))
	}
	if gs.Rows() < s.Table.Rows {
		panic(fmt.Sprintf("nn: row store has %d rows, table needs %d", gs.Rows(), s.Table.Rows))
	}
	s.remote = gs
}

// Async reports whether gathers dispatch through a GatherSource (a
// remote tier) — the condition under which the model overlaps the
// Bottom-MLP with in-flight gathers.
func (s *SLSOp) Async() bool { return s.remote != nil }
