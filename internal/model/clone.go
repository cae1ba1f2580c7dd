package model

import (
	"fmt"

	"recsys/internal/nn"
	"recsys/internal/stats"
)

// Clone returns a deep copy of the model: fresh parameter storage with
// bit-identical weights, and the same serving representation (int8
// tables / int8 MLP compute re-derived from the copied fp32 weights,
// which is deterministic and therefore bit-identical to the source's).
// The clone shares nothing mutable with the receiver, so one side can
// train while the other serves — the twin-model structure of the
// online-learning loop.
//
// Serving attachments (row caches, remote row stores) are deliberately
// not cloned: they belong to the engine's model queue, which re-attaches
// them when the clone is registered or swapped in. A model with int8
// rows only has no fp32 weights to copy (ErrInt8Only).
func (m *Model) Clone() (*Model, error) {
	if err := m.needFP32("clone"); err != nil {
		return nil, err
	}
	// Build a skeleton (its random init is immediately overwritten).
	c, err := Build(m.Config, stats.NewRNG(1))
	if err != nil {
		return nil, err
	}
	if err := c.CopyWeightsFrom(m); err != nil {
		return nil, err
	}
	if m.Quantized() {
		c.QuantizeTables()
	}
	if m.Int8MLPs() {
		c.QuantizeMLPs()
	}
	return c, nil
}

// CopyWeightsFrom overwrites the receiver's fp32 parameters with src's
// and refreshes every derived serving representation — packed GEMM
// weights, int8 quantizations, cached embedding rows — so the next
// forward pass cannot serve stale state. Both models must share a
// config (same parameter block shapes). The receiver must not be
// serving concurrently; it is meant for offline copies (rollback
// restore, candidate snapshots), not for models registered in an
// engine. Both must hold fp32 tables (ErrInt8Only).
func (dst *Model) CopyWeightsFrom(src *Model) error {
	for _, m := range []*Model{src, dst} {
		if err := m.needFP32("copy weights of"); err != nil {
			return err
		}
	}
	db, sb := dst.paramBlocks(), src.paramBlocks()
	if len(db) != len(sb) {
		return fmt.Errorf("model: copy weights across incompatible models (%d vs %d parameter blocks)", len(db), len(sb))
	}
	for i := range db {
		if len(db[i]) != len(sb[i]) {
			return fmt.Errorf("model: parameter block %d has %d floats, want %d", i, len(sb[i]), len(db[i]))
		}
		copy(db[i], sb[i])
	}
	dst.refreshDerived()
	return nil
}

// refreshDerived re-derives every serving-side view of the fp32
// weights: packed (and int8) MLP caches are dropped for lazy rebuild
// and int8 tables are re-quantized in place.
func (m *Model) refreshDerived() {
	if m.Bottom != nil {
		for _, fc := range m.Bottom.Layers {
			fc.InvalidatePacked()
		}
	}
	for _, fc := range m.Top.Layers {
		fc.InvalidatePacked()
	}
	for _, op := range m.SLS {
		if op.Quant != nil {
			op.Quant = nn.Quantize(op.Table)
		}
	}
}

// Dequantize drops the int8 serving representations (int8 table rows
// and MLP int8 compute), returning the model to pure fp32 serving. The
// fp32 weights are untouched; the online updater uses it to train its
// twin at full precision regardless of how the serving copy is
// quantized. A model with int8 rows only has no fp32 rows to return to
// (ErrInt8Only), and is left as it was.
func (m *Model) Dequantize() error {
	if err := m.needFP32("dequantize"); err != nil {
		return err
	}
	for _, op := range m.SLS {
		op.Quant = nil
	}
	if m.Bottom != nil {
		m.Bottom.SetInt8Compute(false)
	}
	m.Top.SetInt8Compute(false)
	return nil
}

// needFP32 is the ErrInt8Only check of every reader of the fp32
// embedding rows; what names the operation that needed them.
func (m *Model) needFP32(what string) error {
	if m.Int8Only() {
		return fmt.Errorf("%s %s: %w", what, m.Config.Name, ErrInt8Only)
	}
	return nil
}
