package nn

import "fmt"

// Spec constructors build operators that carry shapes but no weights.
// They exist so that production-scale models — whose embedding tables
// reach tens of gigabytes — can be described, costed, and simulated
// without materializing parameters. Calling ForwardEx on a spec-only
// operator panics; Stats works normally.

// NewFCSpec returns a shape-only FC layer (no weights; ForwardEx panics).
func NewFCSpec(label string, in, out int) *FC {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: FC dimensions must be positive, got %d×%d", in, out))
	}
	return &FC{In: in, Out: out, label: label}
}

// NewEmbeddingTableSpec returns a shape-only embedding table (no
// weights; SparseLengthsSum panics).
func NewEmbeddingTableSpec(label string, rows, cols int) *EmbeddingTable {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: embedding table dimensions must be positive, got %d×%d", rows, cols))
	}
	return &EmbeddingTable{Rows: rows, Cols: cols, label: label}
}
