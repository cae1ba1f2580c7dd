package nn

import (
	"fmt"
	"runtime"
	"time"

	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// EmbeddingTable maps sparse categorical IDs to dense vectors. A table
// has Rows entries ("input dimension" in Table I, ~millions in
// production) of Cols elements each ("output dimension", 24-40 in the
// paper, typically 32 or 64).
type EmbeddingTable struct {
	Rows, Cols int
	W          *tensor.Tensor // [Rows, Cols]
	label      string
}

// NewEmbeddingTable returns a table with small uniform-random entries
// drawn from rng, or zeroed ones when rng is nil.
func NewEmbeddingTable(label string, rows, cols int, rng *stats.RNG) *EmbeddingTable {
	t := NewEmbeddingTableSpec(label, rows, cols)
	t.W = tensor.New(rows, cols)
	if rng != nil {
		drawRows(t.W.Data(), cols, rng)
	}
	return t
}

// NewQuantizedEmbeddingTable draws the rows NewEmbeddingTable would
// draw from rng, in the same order, and quantizes each one as it is
// drawn: the table it returns is shape-only (W nil) and q holds the
// int8 rows, bit-identical to Quantize(NewEmbeddingTable(...)), or
// zeroed when rng is nil. No fp32 table is allocated, only a row.
func NewQuantizedEmbeddingTable(label string, rows, cols int, rng *stats.RNG) (t *EmbeddingTable, q *QuantizedTable) {
	t = NewEmbeddingTableSpec(label, rows, cols)
	q = newQuantizedTable(t)
	if rng == nil {
		return t, q
	}
	row := make([]float32, cols)
	for r := 0; r < rows; r++ {
		drawRows(row, cols, rng)
		q.QuantizeRow(r, row)
	}
	return t, q
}

// drawRows fills dst, whole rows of cols entries each, with small
// uniform-random entries: the one weight stream both table
// constructors draw, the fp32 one over the whole table at once, the
// int8 one a row at a time.
func drawRows(dst []float32, cols int, rng *stats.RNG) {
	scale := float32(1.0 / float64(cols))
	for i := range dst {
		dst[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Name returns the table label.
func (e *EmbeddingTable) Name() string { return e.label }

// validateIDs checks every ID against [0, Rows) up front so the gather
// inner loops can run check-free.
func (e *EmbeddingTable) validateIDs(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= e.Rows {
			panic(fmt.Sprintf("nn: SparseLengthsSum ID %d out of range [0,%d)", id, e.Rows))
		}
	}
}

// checkLengths verifies the lengths vector is non-negative and sums to
// len(ids).
func checkLengths(ids, lengths []int) {
	total := 0
	for _, l := range lengths {
		if l < 0 {
			panic("nn: SparseLengthsSum negative length")
		}
		total += l
	}
	if total != len(ids) {
		panic(fmt.Sprintf("nn: SparseLengthsSum lengths sum to %d but %d IDs given", total, len(ids)))
	}
}

// addRows sums the rows of rows (row-major, cols wide) that idx
// addresses into dst (len cols): table rows by ID for the local gather,
// staged rows by plan index for the planned one. Indices must already
// be validated; the loop carries no per-index range check. On the AVX2
// kernel tier each row add runs through tensor.AddF32 (8 lanes per
// step, bit-identical to the scalar loop) — the SIMD batching the paper
// leans on for SLS (§V). On the pure-Go tier the common production
// widths 32 and 64 (Table I) take fixed-size array paths so the
// compiler drops bounds checks in the element loop; the default path
// covers the narrow NCF widths.
func addRows[I int | int32](dst, rows []float32, cols int, idx []I) {
	if tensor.SIMDActive() {
		for _, i := range idx {
			tensor.AddF32(dst, rows[int(i)*cols:int(i)*cols+cols])
		}
		return
	}
	switch cols {
	case 32:
		d := (*[32]float32)(dst)
		for _, i := range idx {
			src := (*[32]float32)(rows[int(i)*32:])
			for j := range d {
				d[j] += src[j]
			}
		}
	case 64:
		d := (*[64]float32)(dst)
		for _, i := range idx {
			src := (*[64]float32)(rows[int(i)*64:])
			for j := range d {
				d[j] += src[j]
			}
		}
	default:
		for _, i := range idx {
			for j, v := range rows[int(i)*cols : int(i)*cols+cols] {
				dst[j] += v
			}
		}
	}
}

// SparseLengthsSum implements Algorithm 1 of the paper: for each of the
// K slices described by lengths, gather the rows of the table addressed
// by the corresponding IDs and sum them element-wise into one output
// vector. K is the batch size at inference time.
//
//	Out[k] = Σ_{id ∈ slice k} Table[id]
//
// ids holds the concatenated per-slice ID lists; sum(lengths) must equal
// len(ids). Every ID must be in [0, Rows). IDs are validated up front so
// the gather loop itself runs without per-ID checks.
func (e *EmbeddingTable) SparseLengthsSum(ids []int, lengths []int) *tensor.Tensor {
	checkLengths(ids, lengths)
	e.validateIDs(ids)
	out := tensor.New(len(lengths), e.Cols)
	cur := 0
	for k, l := range lengths {
		addRows(out.Row(k), e.W.Data(), e.Cols, ids[cur:cur+l])
		cur += l
	}
	return out
}

// minParallelGather is the gathered-element count (IDs × Cols) below
// which an SLS forward runs serially.
const minParallelGather = 1 << 14

func slsWorkers(workers, rows, elems int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if elems < minParallelGather {
		return 1
	}
	return workers
}

// SLSOp is one embedding-table lookup-and-pool operator inside a model:
// a table plus the number of sparse IDs gathered per sample
// ("# lookups" in Table I).
type SLSOp struct {
	Table   *EmbeddingTable
	Lookups int // sparse IDs pooled per sample
	// Quant, when non-nil, holds the table's int8 row-wise rows, which
	// every gather reads (the fused dequantize-accumulate kernel) in
	// place of Table.W. A model holds each table once: fp32 in Table.W,
	// which can be trained, or int8 here with Table shape-only (W nil),
	// which can only be served (model.QuantizeTables converts the one
	// into the other; NewQuantizedEmbeddingTable builds the int8 table
	// directly).
	Quant *QuantizedTable
	// remote, when non-nil, is the shard tier gathers fetch rows from
	// (SetRowStore), and only then does the plan/dedup/cache machinery
	// run; nil reads the in-process tables in place (gatherLocal).
	remote GatherSource
	// cache is the optional read-through hot-row cache in front of
	// remote (SetRowCache); always nil without one.
	cache RowCache
}

// NewSLSOp wires a table with its per-sample lookup count.
func NewSLSOp(table *EmbeddingTable, lookups int) *SLSOp {
	if lookups <= 0 {
		panic("nn: SLSOp lookups must be positive")
	}
	return &SLSOp{Table: table, Lookups: lookups}
}

// Name returns the underlying table's label.
func (s *SLSOp) Name() string { return s.Table.label }

// Kind reports KindSLS.
func (s *SLSOp) Kind() Kind { return KindSLS }

// Forward pools Lookups rows per sample for a batch of ID lists. ids
// must contain batch×Lookups entries. It always reads the in-process
// tables, serially and without an arena: the reference the planned
// remote gather is compared against, the trainer's forward, and the
// same body (gatherLocal) that serves every op without a remote store.
func (s *SLSOp) Forward(ids []int, batch int) *tensor.Tensor {
	s.checkIDCount(ids, batch)
	return s.gatherLocal(ids, batch, nil, 1)
}

func (s *SLSOp) checkIDCount(ids []int, batch int) {
	if len(ids) != batch*s.Lookups {
		panic(fmt.Sprintf("nn: SLSOp expects %d IDs for batch %d, got %d", batch*s.Lookups, batch, len(ids)))
	}
}

// ForwardEx is Forward with an optional scratch arena for the output
// tensor and an intra-op worker count (1 = serial, 0 = GOMAXPROCS):
// Begin and Finish back to back. Callers that can overlap a remote
// store's in-flight gather with other work call the two halves
// themselves (model.ForwardDeadline). Results are bit-identical to
// Forward whichever gather the store kind selects.
func (s *SLSOp) ForwardEx(ids []int, batch int, a *tensor.Arena, workers int) *tensor.Tensor {
	var f SLSForward
	s.Begin(&f, ids, batch, a, workers, time.Time{})
	return f.Finish()
}

// gatherLocal is the one gather over in-process tables: every
// occurrence reads its row where it lies, fp32 rows through addRows,
// int8 rows (Quant non-nil) through the fused dequantize-accumulate
// kernel. No dedup plan, no staging, no cache: a row repeated within
// the pass is a hit in the hardware's own hierarchy, which is closer
// to the rows than any software cache in the same address space.
func (s *SLSOp) gatherLocal(ids []int, batch int, a *tensor.Arena, workers int) *tensor.Tensor {
	out := allocDense(a, batch, s.Table.Cols)
	s.Table.validateIDs(ids)
	workers = slsWorkers(workers, batch, len(ids)*s.Table.Cols)
	if workers <= 1 {
		// Inline serial path: the parallel branch's closure must not be
		// reached here, or its allocation would break the steady-state
		// zero-alloc contract.
		s.poolRows(out, ids, 0, batch)
	} else {
		// Panic-isolating fan-out: a bad shard re-raises on this
		// goroutine.
		tensor.ParallelFor(batch, workers, func(lo, hi int) {
			s.poolRows(out, ids, lo, hi)
		})
	}
	return out
}

// poolRows pools output rows [kLo, kHi) with the op's uniform lookup
// count. IDs must be pre-validated.
func (s *SLSOp) poolRows(out *tensor.Tensor, ids []int, kLo, kHi int) {
	l := s.Lookups
	for k := kLo; k < kHi; k++ {
		row, rowIDs := out.Row(k), ids[k*l:(k+1)*l]
		if s.Quant == nil {
			addRows(row, s.Table.W.Data(), s.Table.Cols, rowIDs)
			continue
		}
		for _, id := range rowIDs {
			s.Quant.AccumRow(id, row)
		}
	}
}

// Stats reports the gather work: each lookup reads one row of Cols fp32
// elements and accumulates it (one add per element). The access pattern
// is irregular — rows are scattered across a table far larger than any
// cache — which is what produces the 8 MPKI LLC miss rates of Figure 5.
// With an int8 table the row read shrinks to Cols bytes plus the
// per-row scale/offset pair.
func (s *SLSOp) Stats(batch int) OpStats {
	rowBytes := bytesF32(s.Table.Cols)
	if s.Quant != nil {
		rowBytes = float64(s.Quant.Cols) + 8
	}
	gathered := float64(batch * s.Lookups)
	return OpStats{
		FLOPs:      gathered * float64(s.Table.Cols), // one add per gathered element
		ParamBytes: gathered * rowBytes,
		ReadBytes:  gathered*rowBytes + float64(batch*s.Lookups)*8, // rows + the int64 IDs themselves
		WriteBytes: bytesF32(batch * s.Table.Cols),
		Irregular:  true,
	}
}
