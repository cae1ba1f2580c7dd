package model

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"recsys/internal/nn"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// MaxBuildBytes caps the parameter bytes a model holds (heldBytes: MLPs
// and tables, as held), so neither a production-scale (10GB+) config
// nor a hostile checkpoint header is allocated: Build and Load refuse
// a config over it first. Config.Scaled shrinks a preset below it.
const MaxBuildBytes = 1 << 30 // 1 GiB

// Model is a runnable recommendation model: real fp32 weights, real
// forward pass. Production-scale configs are typically run through the
// performance simulator instead (internal/perf); Build materializes
// models for functional use — examples, correctness tests, and
// trace-driven cache studies.
type Model struct {
	Config   Config
	Bottom   *nn.MLP // nil when the config has no dense path
	SLS      []*nn.SLSOp
	ConcatOp *nn.Concat
	Interact *nn.DotInteraction // nil for Cat interaction
	Top      *nn.MLP
}

// ErrInt8Only is the error the trainer refuses a model with whose
// tables hold int8 rows (QuantizeTables, or Spec.Build with
// Int8Tables): there are no fp32 rows to train.
var ErrInt8Only = errors.New("model: embedding tables hold int8 rows only, no fp32 rows")

// Build materializes a runnable model with weights drawn from rng.
// It returns an error if the config is invalid or its parameters exceed
// MaxBuildBytes.
func Build(cfg Config, rng *stats.RNG) (*Model, error) {
	return build(cfg, rng, false)
}

// build is the one body of Build and Spec.Build. With int8Tables every
// table is drawn straight into int8 rows (nn.NewQuantizedEmbeddingTable)
// and no fp32 table is allocated; the rows, and every weight drawn after
// them, are bit-identical to Build followed by QuantizeTables.
func build(cfg Config, rng *stats.RNG, int8Tables bool) (*Model, error) {
	if _, _, err := heldBytes(cfg, int8Tables); err != nil {
		return nil, err
	}
	m := &Model{Config: cfg}
	if cfg.DenseIn > 0 {
		dims := append([]int{cfg.DenseIn}, cfg.BottomMLP...)
		m.Bottom = nn.NewMLP(cfg.Name+"/bottom", dims, true, rng)
	}
	for i, t := range cfg.Tables {
		label := fmt.Sprintf("%s/emb%d", cfg.Name, i)
		if !int8Tables {
			m.SLS = append(m.SLS, nn.NewSLSOp(nn.NewEmbeddingTable(label, t.Rows, t.Dim, rng), t.Lookups))
			continue
		}
		table, q := nn.NewQuantizedEmbeddingTable(label, t.Rows, t.Dim, rng)
		op := nn.NewSLSOp(table, t.Lookups)
		op.Quant = q
		m.SLS = append(m.SLS, op)
	}
	widths := make([]int, 0, len(cfg.Tables)+1)
	if cfg.BottomOut() > 0 {
		widths = append(widths, cfg.BottomOut())
	}
	for _, t := range cfg.Tables {
		widths = append(widths, t.Dim)
	}
	m.ConcatOp = nn.NewConcat(cfg.Name+"/concat", widths)
	if cfg.Interaction == Dot {
		m.Interact = nn.NewDotInteraction(cfg.Name+"/interact", len(cfg.Tables)+1, cfg.BottomOut(), true)
	}
	dims := append([]int{cfg.TopMLPIn()}, cfg.TopMLP...)
	m.Top = nn.NewMLP(cfg.Name+"/top", dims, false, rng)
	return m, nil
}

// heldBytes validates cfg and returns its parameter bytes as a build
// holds them, and the number of paramBlocks: each FC's W and b in fp32,
// each table in fp32 or (int8Tables) as codes plus 8 bytes a row. It
// refuses a total over MaxBuildBytes, or one that would wrap 64 bits.
func heldBytes(cfg Config, int8Tables bool) (n int64, blocks int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	var sum, wrapped uint64
	add := func(a, b, size int) { // a·b elements of size bytes
		hi, lo := bits.Mul64(uint64(a), uint64(b))
		hi2, lo := bits.Mul64(lo, uint64(size))
		var carry uint64
		sum, carry = bits.Add64(sum, lo, 0)
		wrapped |= hi | hi2 | carry
	}
	mlp := func(in int, widths []int) {
		for _, w := range widths {
			add(in+1, w, 4) // W and b
			in = w
		}
		blocks += 2 * len(widths)
	}
	mlp(cfg.DenseIn, cfg.BottomMLP)
	for _, t := range cfg.Tables {
		if int8Tables {
			add(t.Rows, t.Dim, 1)
			add(t.Rows, 2, 4) // a scale and an offset
			blocks += 3
		} else {
			add(t.Rows, t.Dim, 4)
			blocks++
		}
	}
	mlp(cfg.TopMLPIn(), cfg.TopMLP)
	if wrapped != 0 || sum > MaxBuildBytes {
		need, kind := fmt.Sprintf("%d bytes", sum), "fp32"
		if wrapped != 0 {
			need = "over 2^64 bytes"
		}
		if int8Tables {
			kind = "int8"
		}
		return 0, 0, fmt.Errorf("model: %s needs %s of parameters with %s tables, over the %d-byte cap; use Config.Scaled or the performance simulator",
			cfg.Name, need, kind, MaxBuildBytes)
	}
	return int64(sum), blocks, nil
}

// Request is one batched inference input.
type Request struct {
	// Dense is the continuous-feature matrix [batch, DenseIn]; nil when
	// the model has no dense path.
	Dense *tensor.Tensor
	// SparseIDs[t] holds batch×Lookups[t] embedding-row IDs for table t.
	SparseIDs [][]int
	// Batch is the number of user-item pairs ranked together.
	Batch int
}

// NewRandomRequest builds a request with uniform-random sparse IDs and
// normal dense features — the load shape of the paper's synthetic
// benchmark.
func NewRandomRequest(cfg Config, batch int, rng *stats.RNG) Request {
	req := Request{Batch: batch}
	if cfg.DenseIn > 0 {
		req.Dense = tensor.New(batch, cfg.DenseIn)
		d := req.Dense.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64())
		}
	}
	for _, t := range cfg.Tables {
		ids := make([]int, batch*t.Lookups)
		for i := range ids {
			ids[i] = rng.Intn(t.Rows)
		}
		req.SparseIDs = append(req.SparseIDs, ids)
	}
	return req
}

// Forward computes the predicted click-through rate for every pair in
// the request, returning a [batch, 1] tensor of probabilities in (0,1).
// This is the serial allocating reference path — plain blocked GEMM,
// unpacked weights, fresh tensors — that the hot path in ForwardEx is
// tested bit-identical against.
func (m *Model) Forward(req Request) *tensor.Tensor {
	if len(req.SparseIDs) != len(m.SLS) {
		panic(fmt.Sprintf("model: %s expects %d sparse inputs, got %d", m.Config.Name, len(m.SLS), len(req.SparseIDs)))
	}
	var parts []*tensor.Tensor
	if m.Bottom != nil {
		if req.Dense == nil {
			panic(fmt.Sprintf("model: %s requires dense features", m.Config.Name))
		}
		parts = append(parts, m.Bottom.Forward(req.Dense))
	}
	for t, op := range m.SLS {
		parts = append(parts, op.Forward(req.SparseIDs[t], req.Batch))
	}
	x := m.ConcatOp.Forward(parts)
	if m.Interact != nil {
		x = m.Interact.Forward(x)
	}
	x = m.Top.Forward(x)
	nn.SigmoidInPlace(x)
	return x
}

// SpanObserver receives one per-operator timing span per executed
// stage of an instrumented forward pass. Implementations must be safe
// for the caller's concurrency (the engine shares one observer across
// its executor workers) and must not allocate if the hot path's
// zero-allocation contract matters to them.
type SpanObserver interface {
	// OpSpan reports that operator name of the given kind ran for d.
	OpSpan(name string, kind nn.Kind, d time.Duration)
}

// ForwardEx is the inference hot path: every activation tensor is
// carved from the arena (when non-nil) so a steady-state pass performs
// zero heap allocations, FC layers run against packed weights, and the
// FC and SLS kernels split rows across workers goroutines (1 = serial,
// 0 = GOMAXPROCS). Row-partitioned parallelism leaves per-row
// accumulation order unchanged, so results are bit-identical to the
// serial allocating path for any (arena, workers) combination.
//
// The returned tensor aliases the arena; copy what must outlive the
// next Reset.
func (m *Model) ForwardEx(req Request, a *tensor.Arena, workers int) *tensor.Tensor {
	return m.ForwardSpans(req, a, workers, nil)
}

// ForwardSpans is ForwardEx with per-operator instrumentation: when
// obs is non-nil, every stage (bottom MLP, each SLS, concat,
// interaction, top MLP, sigmoid) emits one span — the live analogue of
// the paper's Caffe2 operator breakdowns (Figure 7). A nil obs skips
// all clock reads, so ForwardEx pays nothing for the hooks.
func (m *Model) ForwardSpans(req Request, a *tensor.Arena, workers int, obs SpanObserver) *tensor.Tensor {
	return m.ForwardDeadline(req, a, workers, obs, time.Time{})
}

// ForwardDeadline is ForwardSpans with a deadline that bounds remote
// embedding gathers (zero means the shard client's request timeout
// applies; local tables never read it). It is the one forward body:
// Begin every SLS, run the Bottom-MLP, Finish every SLS, then concat,
// interaction, Top-MLP and sigmoid. A local table's Begin only records
// its arguments, so its whole gather runs — and is timed — in Finish;
// an op behind an asynchronous GatherSource (a sharded embedding tier)
// dispatches in Begin, so the Bottom-MLP runs while the rows are in
// flight, the overlap internal/dist's Estimate prices as max(Bottom,
// Shard+Net) + Top. Such an op emits a dispatch span and a finish span
// under the same name (observers sum them).
func (m *Model) ForwardDeadline(req Request, a *tensor.Arena, workers int, obs SpanObserver, deadline time.Time) *tensor.Tensor {
	if len(req.SparseIDs) != len(m.SLS) {
		panic(fmt.Sprintf("model: %s expects %d sparse inputs, got %d", m.Config.Name, len(m.SLS), len(req.SparseIDs)))
	}
	n := len(m.SLS)
	if m.Bottom != nil {
		n++
	}
	var parts []*tensor.Tensor
	if a != nil {
		parts = a.Ptrs(n)
	} else {
		parts = make([]*tensor.Tensor, n)
	}
	// The in-flight SLS state lives on this frame, so a pass allocates
	// nothing for it; only a model wider than any preset spills.
	var slots [maxStackSLS]nn.SLSForward
	fwds := slots[:]
	if len(m.SLS) > len(slots) {
		fwds = make([]nn.SLSForward, len(m.SLS))
	}
	var t0 time.Time
	for t, op := range m.SLS {
		timed := obs != nil && op.Async()
		if timed {
			t0 = time.Now()
		}
		op.Begin(&fwds[t], req.SparseIDs[t], req.Batch, a, workers, deadline)
		if timed {
			obs.OpSpan(op.Name(), nn.KindSLS, time.Since(t0))
		}
	}
	i := 0
	if m.Bottom != nil {
		if req.Dense == nil {
			panic(fmt.Sprintf("model: %s requires dense features", m.Config.Name))
		}
		if obs != nil {
			t0 = time.Now()
		}
		parts[i] = m.Bottom.ForwardEx(req.Dense, a, workers)
		if obs != nil {
			obs.OpSpan(m.Bottom.Name(), nn.KindFC, time.Since(t0))
		}
		i++
	}
	for t, op := range m.SLS {
		if obs != nil {
			t0 = time.Now()
		}
		parts[i] = fwds[t].Finish()
		if obs != nil {
			obs.OpSpan(op.Name(), nn.KindSLS, time.Since(t0))
		}
		i++
	}
	if obs != nil {
		t0 = time.Now()
	}
	x := m.ConcatOp.ForwardEx(parts, a)
	if obs != nil {
		obs.OpSpan(m.ConcatOp.Name(), nn.KindConcat, time.Since(t0))
	}
	if m.Interact != nil {
		if obs != nil {
			t0 = time.Now()
		}
		x = m.Interact.ForwardEx(x, a)
		if obs != nil {
			obs.OpSpan(m.Interact.Name(), nn.KindBatchMM, time.Since(t0))
		}
	}
	if obs != nil {
		t0 = time.Now()
	}
	x = m.Top.ForwardEx(x, a, workers)
	if obs != nil {
		obs.OpSpan(m.Top.Name(), nn.KindFC, time.Since(t0))
	}
	if obs != nil {
		t0 = time.Now()
	}
	nn.SigmoidInPlace(x)
	if obs != nil {
		obs.OpSpan("sigmoid", nn.KindActivation, time.Since(t0))
	}
	return x
}

// maxStackSLS is the table count of the widest preset (RMC2Large).
const maxStackSLS = 40

// CTR runs Forward and returns the probabilities as a plain slice.
func (m *Model) CTR(req Request) []float32 {
	out := m.Forward(req)
	res := make([]float32, out.Dim(0))
	copy(res, out.Data())
	return res
}

// AppendCTR runs the hot-path forward pass and appends the
// probabilities to dst, which is returned. The arena holds every
// intermediate, so with a warm arena and workers == 1 the only heap
// growth is dst itself when it lacks capacity.
func (m *Model) AppendCTR(dst []float32, req Request, a *tensor.Arena, workers int) []float32 {
	out := m.ForwardEx(req, a, workers)
	return append(dst, out.Data()...)
}
