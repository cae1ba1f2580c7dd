package nn

import (
	"fmt"

	"recsys/internal/tensor"
)

// Concat joins rank-2 tensors along the feature (second) dimension.
// Recommendation models use it to combine the Bottom-FC output with the
// pooled embedding vectors before the Top-FC stack (Figure 3).
type Concat struct {
	// Widths are the feature widths of the inputs, in order.
	Widths []int
	label  string
}

// NewConcat returns a Concat over inputs of the given widths.
func NewConcat(label string, widths []int) *Concat {
	if len(widths) == 0 {
		panic("nn: Concat needs at least one input")
	}
	for _, w := range widths {
		if w <= 0 {
			panic(fmt.Sprintf("nn: Concat width must be positive, got %v", widths))
		}
	}
	c := &Concat{Widths: make([]int, len(widths)), label: label}
	copy(c.Widths, widths)
	return c
}

// Name returns the op label.
func (c *Concat) Name() string { return c.label }

// Kind reports KindConcat.
func (c *Concat) Kind() Kind { return KindConcat }

// OutDim returns the concatenated feature width.
func (c *Concat) OutDim() int {
	n := 0
	for _, w := range c.Widths {
		n += w
	}
	return n
}

// ForwardEx concatenates the inputs along dim 1 into a tensor carved
// from the arena (fresh when a is nil). All inputs must be rank-2 with
// equal batch size and widths matching the op definition.
func (c *Concat) ForwardEx(inputs []*tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	if len(inputs) != len(c.Widths) {
		panic(fmt.Sprintf("nn: Concat %q got %d inputs, want %d", c.label, len(inputs), len(c.Widths)))
	}
	batch := inputs[0].Dim(0)
	for i, in := range inputs {
		if in.Rank() != 2 || in.Dim(0) != batch || in.Dim(1) != c.Widths[i] {
			panic(fmt.Sprintf("nn: Concat %q input %d shape %v, want [%d %d]", c.label, i, in.Shape(), batch, c.Widths[i]))
		}
	}
	out := allocDense(a, batch, c.OutDim())
	for b := 0; b < batch; b++ {
		dst := out.Row(b)
		off := 0
		for _, in := range inputs {
			row := in.Row(b)
			copy(dst[off:off+len(row)], row)
			off += len(row)
		}
	}
	return out
}

// Stats reports pure data movement: every element read once and written
// once, zero FLOPs.
func (c *Concat) Stats(batch int) OpStats {
	elems := batch * c.OutDim()
	return OpStats{
		ReadBytes:  bytesF32(elems),
		WriteBytes: bytesF32(elems),
	}
}
