package model

import "fmt"

// Clone returns a deep copy of the model: parameters allocated once and
// filled with the receiver's weights bit for bit, each table held as
// the receiver holds it (fp32 or int8), and the same MLP compute mode.
// The clone shares nothing mutable with the receiver, so one side can
// train while the other serves — the twin-model structure of the
// online-learning loop.
//
// Serving attachments (row caches, remote row stores) are deliberately
// not cloned: they belong to the engine's model queue, which re-attaches
// them when the clone is registered or swapped in.
func (m *Model) Clone() (*Model, error) {
	c, err := build(m.Config, nil, m.Quantized())
	if err != nil {
		return nil, err
	}
	if err := c.CopyWeightsFrom(m); err != nil {
		return nil, err
	}
	if m.Int8MLPs() {
		c.QuantizeMLPs()
	}
	return c, nil
}

// CopyWeightsFrom overwrites the receiver's parameters with src's and
// drops the packed (and int8) MLP weight caches, so the next forward
// pass cannot serve stale state. Both models must share a config and
// hold their tables the same way (same parameter blocks); otherwise
// nothing is copied. The receiver must not be serving concurrently; it
// is meant for offline copies (rollback restore, candidate snapshots),
// not for models registered in an engine.
func (dst *Model) CopyWeightsFrom(src *Model) error {
	db, sb := dst.paramBlocks(), src.paramBlocks()
	if len(db) != len(sb) {
		return fmt.Errorf("model: copy weights across incompatible models (%d vs %d parameter blocks)", len(db), len(sb))
	}
	for i := range db {
		if db[i].len() != sb[i].len() || db[i].size() != sb[i].size() {
			return fmt.Errorf("model: parameter block %d holds %s, want %s", i, sb[i], db[i])
		}
	}
	for i := range db {
		copy(db[i].f32, sb[i].f32)
		copy(db[i].i8, sb[i].i8)
	}
	dst.refreshDerived()
	return nil
}

// refreshDerived drops the packed (and int8) MLP weight caches for lazy
// rebuild from the current fp32 weights.
func (m *Model) refreshDerived() {
	if m.Bottom != nil {
		for _, fc := range m.Bottom.Layers {
			fc.InvalidatePacked()
		}
	}
	for _, fc := range m.Top.Layers {
		fc.InvalidatePacked()
	}
}
