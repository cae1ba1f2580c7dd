// Package online implements the continuous train→quantize→swap loop of
// a production recommendation service: a click/label stream derived
// from served traffic (ClickBuffer fed by an engine.ServeTap),
// background training steps on an fp32 twin of the serving model
// (Updater), periodic candidate snapshots that are optionally
// re-quantized to int8, a held-out-loss quality gate with automatic
// rollback to the last good generation, and publication either as an
// in-place hot swap or as a weighted A/B canary behind ABRouter.
//
// Recommendation models retrain continuously (Gupta et al., HPCA 2020
// §II; DeepRecSys treats model refresh as part of the serving loop);
// this package turns the repo's trainer, int8 re-quantization and
// atomic hot swap into that pipeline, off the serving path.
package online

import (
	"fmt"
	"sync"

	"recsys/internal/engine"
	"recsys/internal/model"
	"recsys/internal/stats"
	"recsys/internal/tensor"
)

// Labeler turns a served request into click labels — one {0,1} outcome
// per sample. Production systems join served impressions with logged
// clicks; tests and the simulator use train.Teacher, which satisfies
// this interface.
type Labeler interface {
	Label(req model.Request) []float32
}

// Stream is the updater's labeled-example source.
type Stream interface {
	// Sample composes one training batch. ok is false when the stream
	// cannot fill a batch yet (e.g. not enough served traffic observed).
	Sample(batch int) (req model.Request, labels []float32, ok bool)
}

// ClickBuffer is a bounded experience-replay buffer over served
// traffic: the engine's serve tap feeds it (request, label) pairs, the
// updater samples uniform random training batches from it. The ring
// keeps the most recent capacity samples; sampling is with
// replacement. All methods are safe for concurrent use.
type ClickBuffer struct {
	cfg model.Config
	cap int

	mu      sync.Mutex
	rng     *stats.RNG
	dense   []float32 // cap × DenseIn, slot-indexed
	ids     [][]int   // per table: cap × Lookups, slot-indexed
	labels  []float32 // cap
	n       int       // filled slots ≤ cap
	next    int       // ring write cursor
	fed     int64
	sampled int64
}

// NewClickBuffer sizes a buffer for requests shaped by cfg. capacity is
// in samples (user-item pairs), not requests.
func NewClickBuffer(cfg model.Config, capacity int, seed uint64) (*ClickBuffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("online: click buffer capacity must be positive, got %d", capacity)
	}
	b := &ClickBuffer{
		cfg:    cfg,
		cap:    capacity,
		rng:    stats.NewRNG(seed),
		labels: make([]float32, capacity),
	}
	if cfg.DenseIn > 0 {
		b.dense = make([]float32, capacity*cfg.DenseIn)
	}
	b.ids = make([][]int, len(cfg.Tables))
	for t := range cfg.Tables {
		b.ids[t] = make([]int, capacity*cfg.Tables[t].Lookups)
	}
	return b, nil
}

// Tap adapts the buffer into an engine.ServeTap: every served batch is
// labeled and appended. The labeler runs under the buffer's lock —
// labelers like train.Teacher carry their own RNG and are not safe for
// the executor pool's concurrency on their own. The tap copies
// everything it keeps; the engine's aliasing contract is honored.
func (b *ClickBuffer) Tap(l Labeler) engine.ServeTap {
	return func(name string, req model.Request, scores []float32) {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.addLocked(req, l.Label(req))
	}
}

func (b *ClickBuffer) addLocked(req model.Request, labels []float32) {
	if len(labels) != req.Batch {
		panic(fmt.Sprintf("online: %d labels for batch %d", len(labels), req.Batch))
	}
	for i := 0; i < req.Batch; i++ {
		slot := b.next
		if b.cfg.DenseIn > 0 {
			copy(b.dense[slot*b.cfg.DenseIn:(slot+1)*b.cfg.DenseIn], req.Dense.Row(i))
		}
		for t := range b.ids {
			lk := b.cfg.Tables[t].Lookups
			copy(b.ids[t][slot*lk:(slot+1)*lk], req.SparseIDs[t][i*lk:(i+1)*lk])
		}
		b.labels[slot] = labels[i]
		b.next = (b.next + 1) % b.cap
		if b.n < b.cap {
			b.n++
		}
	}
	b.fed += int64(req.Batch)
}

// Sample composes one training batch by drawing batch samples uniformly
// (with replacement) from the ring. ok is false until the buffer holds
// at least batch samples, so early training never recycles a tiny set.
func (b *ClickBuffer) Sample(batch int) (model.Request, []float32, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if batch <= 0 || b.n < batch {
		return model.Request{}, nil, false
	}
	req := model.Request{Batch: batch}
	if b.cfg.DenseIn > 0 {
		req.Dense = tensor.New(batch, b.cfg.DenseIn)
	}
	req.SparseIDs = make([][]int, len(b.cfg.Tables))
	for t := range req.SparseIDs {
		req.SparseIDs[t] = make([]int, batch*b.cfg.Tables[t].Lookups)
	}
	labels := make([]float32, batch)
	for i := 0; i < batch; i++ {
		slot := b.rng.Intn(b.n)
		if b.cfg.DenseIn > 0 {
			copy(req.Dense.Row(i), b.dense[slot*b.cfg.DenseIn:(slot+1)*b.cfg.DenseIn])
		}
		for t := range req.SparseIDs {
			lk := b.cfg.Tables[t].Lookups
			copy(req.SparseIDs[t][i*lk:(i+1)*lk], b.ids[t][slot*lk:(slot+1)*lk])
		}
		labels[i] = b.labels[slot]
	}
	b.sampled += int64(batch)
	return req, labels, true
}

// Len returns the number of samples currently held.
func (b *ClickBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Fed returns the cumulative number of samples appended.
func (b *ClickBuffer) Fed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fed
}
