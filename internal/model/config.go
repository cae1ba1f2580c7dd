// Package model defines the recommendation-model architectures of the
// paper: the three production classes RMC1, RMC2, and RMC3 (Table I),
// the MLPerf-NCF baseline it is contrasted with (Figure 12), and the
// reference CNN/RNN workloads of Figure 2. A Config carries the same
// knobs as the paper's open-source benchmark (Figure 13): number and
// shape of embedding tables, lookups per table, and the widths of the
// Bottom- and Top-MLPs.
package model

import (
	"errors"
	"fmt"

	"recsys/internal/nn"
)

// Class identifies the recommendation-model family (§III).
type Class int

// Model classes in the paper's order.
const (
	// RMC1: small FCs, few small embedding tables. Used in the
	// lightweight filtering step of Figure 6.
	RMC1 Class = iota
	// RMC2: small FCs, many large embedding tables (memory-intensive
	// heavyweight ranking).
	RMC2
	// RMC3: large FCs, few but very tall embedding tables
	// (compute-intensive heavyweight ranking).
	RMC3
	// NCF is the MLPerf neural-collaborative-filtering baseline.
	NCF
	// Custom marks user-defined configurations.
	Custom
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case RMC1:
		return "RMC1"
	case RMC2:
		return "RMC2"
	case RMC3:
		return "RMC3"
	case NCF:
		return "NCF"
	case Custom:
		return "Custom"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Interaction selects how dense and sparse features are combined before
// the Top-MLP.
type Interaction int

// Interaction kinds.
const (
	// Cat concatenates the Bottom-MLP output with every pooled
	// embedding vector (Figure 3).
	Cat Interaction = iota
	// Dot computes pairwise dot products between the Bottom-MLP output
	// and the pooled embedding vectors (DLRM's BatchMatMul-based
	// interaction); requires the Bottom-MLP output width to equal the
	// embedding dimension.
	Dot
)

// String returns the interaction name.
func (i Interaction) String() string {
	if i == Dot {
		return "Dot"
	}
	return "Cat"
}

// TableSpec describes one embedding table and its per-sample pooling
// factor.
type TableSpec struct {
	Rows    int // categorical vocabulary size ("input dim", Table I)
	Dim     int // embedding vector width ("output dim", 24-40 in §III)
	Lookups int // sparse IDs pooled per sample
}

// Config is a complete recommendation-model architecture.
type Config struct {
	Name  string
	Class Class

	// DenseIn is the number of continuous input features. Zero means
	// the model has no dense path (e.g. NCF).
	DenseIn int
	// BottomMLP holds the Bottom-FC layer widths (input width is
	// DenseIn). Empty when DenseIn is zero.
	BottomMLP []int
	// TopMLP holds the Top-FC layer widths; the final width must be 1
	// (the predicted click-through rate).
	TopMLP []int
	// Tables lists the embedding tables.
	Tables []TableSpec
	// Interaction selects Cat or Dot feature combination.
	Interaction Interaction
}

// Validate reports whether the configuration is structurally sound.
func (c Config) Validate() error {
	if c.Name == "" {
		return errors.New("model: config needs a name")
	}
	if len(c.TopMLP) == 0 {
		return errors.New("model: config needs a Top-MLP")
	}
	if c.TopMLP[len(c.TopMLP)-1] != 1 {
		return fmt.Errorf("model: Top-MLP must end in width 1, got %v", c.TopMLP)
	}
	if c.DenseIn < 0 {
		return errors.New("model: negative DenseIn")
	}
	if (c.DenseIn == 0) != (len(c.BottomMLP) == 0) {
		return errors.New("model: DenseIn and BottomMLP must be both present or both absent")
	}
	if len(c.Tables) == 0 && c.DenseIn == 0 {
		return errors.New("model: config needs dense features, embedding tables, or both")
	}
	for i, t := range c.Tables {
		if t.Rows <= 0 || t.Dim <= 0 || t.Lookups <= 0 {
			return fmt.Errorf("model: table %d has non-positive spec %+v", i, t)
		}
	}
	for _, w := range append(append([]int{}, c.BottomMLP...), c.TopMLP...) {
		if w <= 0 {
			return errors.New("model: non-positive MLP width")
		}
	}
	if c.Interaction == Dot {
		if len(c.BottomMLP) == 0 || len(c.Tables) == 0 {
			return errors.New("model: Dot interaction needs both a dense path and embedding tables")
		}
		bottomOut := c.BottomMLP[len(c.BottomMLP)-1]
		for i, t := range c.Tables {
			if t.Dim != bottomOut {
				return fmt.Errorf("model: Dot interaction requires table %d dim %d to equal Bottom-MLP output %d", i, t.Dim, bottomOut)
			}
		}
	}
	return nil
}

// BottomOut returns the Bottom-MLP output width (0 if no dense path).
func (c Config) BottomOut() int {
	if len(c.BottomMLP) == 0 {
		return 0
	}
	return c.BottomMLP[len(c.BottomMLP)-1]
}

// TopMLPIn returns the Top-MLP input width implied by the interaction.
func (c Config) TopMLPIn() int {
	if c.Interaction == Dot {
		// Vectors: bottom output plus one per table; pairwise dots plus
		// the dense vector itself (DLRM-style IncludeDense).
		n := len(c.Tables) + 1
		return n*(n-1)/2 + c.BottomOut()
	}
	n := c.BottomOut()
	for _, t := range c.Tables {
		n += t.Dim
	}
	return n
}

// EmbeddingBytes returns the total fp32 storage of all tables — the
// quantity that spans 100MB / 10GB / 1GB across RMC1/RMC2/RMC3 (§III-B).
func (c Config) EmbeddingBytes() int64 {
	var n int64
	for _, t := range c.Tables {
		n += int64(t.Rows) * int64(t.Dim) * 4
	}
	return n
}

// MLPParams returns the learnable FC parameter count (Bottom + Top).
func (c Config) MLPParams() int {
	n := 0
	prev := c.DenseIn
	for _, w := range c.BottomMLP {
		n += prev*w + w
		prev = w
	}
	prev = c.TopMLPIn()
	for _, w := range c.TopMLP {
		n += prev*w + w
		prev = w
	}
	return n
}

// LookupsPerSample returns total embedding rows gathered per sample.
func (c Config) LookupsPerSample() int {
	n := 0
	for _, t := range c.Tables {
		n += t.Lookups
	}
	return n
}

// Ops returns the model's operator sequence as shape-only specs, in
// execution order: Bottom-MLP (FC + ReLU pairs), one SLS per table, the
// interaction (Concat, plus DotInteraction for Dot), then the Top-MLP
// with a final Sigmoid. The list drives both the performance model and
// the operator-breakdown figures.
func (c Config) Ops() []nn.Op {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	var ops []nn.Op
	prev := c.DenseIn
	for i, w := range c.BottomMLP {
		ops = append(ops,
			nn.NewFCSpec(fmt.Sprintf("%s/bottom-fc%d", c.Name, i), prev, w),
			nn.NewActivation(fmt.Sprintf("%s/bottom-relu%d", c.Name, i), w, false),
		)
		prev = w
	}
	for i, t := range c.Tables {
		table := nn.NewEmbeddingTableSpec(fmt.Sprintf("%s/emb%d", c.Name, i), t.Rows, t.Dim)
		ops = append(ops, nn.NewSLSOp(table, t.Lookups))
	}
	widths := make([]int, 0, len(c.Tables)+1)
	if c.BottomOut() > 0 {
		widths = append(widths, c.BottomOut())
	}
	for _, t := range c.Tables {
		widths = append(widths, t.Dim)
	}
	ops = append(ops, nn.NewConcat(c.Name+"/concat", widths))
	if c.Interaction == Dot {
		ops = append(ops, nn.NewDotInteraction(c.Name+"/interact", len(c.Tables)+1, c.BottomOut(), true))
	}
	prev = c.TopMLPIn()
	for i, w := range c.TopMLP {
		ops = append(ops, nn.NewFCSpec(fmt.Sprintf("%s/top-fc%d", c.Name, i), prev, w))
		if i+1 < len(c.TopMLP) {
			ops = append(ops, nn.NewActivation(fmt.Sprintf("%s/top-relu%d", c.Name, i), w, false))
		} else {
			ops = append(ops, nn.NewActivation(c.Name+"/sigmoid", w, true))
		}
		prev = w
	}
	return ops
}

// TotalStats aggregates all operator work for one inference.
func (c Config) TotalStats(batch int) nn.OpStats {
	var total nn.OpStats
	for _, op := range c.Ops() {
		total.Add(op.Stats(batch))
	}
	return total
}

// UniformTables returns n identical table specs.
func UniformTables(n, rows, dim, lookups int) []TableSpec {
	ts := make([]TableSpec, n)
	for i := range ts {
		ts[i] = TableSpec{Rows: rows, Dim: dim, Lookups: lookups}
	}
	return ts
}

// Scaled returns a copy of the config with every table's rows divided
// by factor (minimum 16 rows), for materializing runnable versions of
// production-scale models on small machines. MLP shapes are unchanged,
// so compute behaviour is preserved; only embedding storage shrinks.
func (c Config) Scaled(factor int) Config {
	if factor <= 0 {
		panic("model: scale factor must be positive")
	}
	out := c
	out.Name = fmt.Sprintf("%s-1/%d", c.Name, factor)
	out.Tables = make([]TableSpec, len(c.Tables))
	for i, t := range c.Tables {
		rows := t.Rows / factor
		if rows < 16 {
			rows = 16
		}
		out.Tables[i] = TableSpec{Rows: rows, Dim: t.Dim, Lookups: t.Lookups}
	}
	return out
}
