package model

import "recsys/internal/nn"

// QuantizeTables converts every fp32 embedding table to int8 row-wise
// rows (Takeaway 5's "aggressive compression"): each SLS op gains an
// nn.QuantizedTable, which every gather reads, and drops its fp32 W, so
// the model holds each row once. The conversion is one way: an int8
// model serves, clones and checkpoints, but cannot be trained
// (ErrInt8Only). Spec.Build with Int8Tables builds the same rows
// without ever holding the fp32 tables; on such a model, or any whose
// tables are already int8, QuantizeTables changes nothing.
//
// The method returns the model for chaining (m :=
// must(Build(cfg)).QuantizeTables()).
func (m *Model) QuantizeTables() *Model {
	for _, op := range m.SLS {
		if op.Table.W != nil {
			op.Quant = nn.Quantize(op.Table)
			op.Table.W = nil
		}
	}
	return m
}

// QuantizeMLPs switches the bottom and top MLP stacks to int8 compute
// on the serving path (nn.FC's quantized integer GEMM): per-channel
// symmetric int8 weights, dynamic per-row uint8 activations, and
// u8·s8→i32 dot products. Every forward of the model runs them from
// here on: the engine's, CTR, and so the online updater's quality
// gate. The fp32 weights stay the source of truth (checkpoints save
// them, and InvalidatePacked re-quantizes after a weight update), but
// the trainer refuses the model (ErrInt8Only): train the fp32 twin
// and quantize a clone. Returns the model for chaining; presets select
// it with the "-int8mlp" model-spec suffix.
func (m *Model) QuantizeMLPs() *Model {
	if m.Bottom != nil {
		m.Bottom.SetInt8Compute(true)
	}
	m.Top.SetInt8Compute(true)
	return m
}

// Int8MLPs reports whether the MLP stacks run int8 compute (the bottom
// stack is exempt when the model has no dense path).
func (m *Model) Int8MLPs() bool {
	if m.Bottom != nil && !m.Bottom.Int8Compute() {
		return false
	}
	return m.Top.Int8Compute()
}

// Quantized reports whether the model's embedding tables hold int8
// rows (QuantizeTables, or Spec.Build with Int8Tables) rather than
// fp32 ones.
func (m *Model) Quantized() bool {
	if len(m.SLS) == 0 {
		return false
	}
	for _, op := range m.SLS {
		if op.Quant == nil {
			return false
		}
	}
	return true
}
