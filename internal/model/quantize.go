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
