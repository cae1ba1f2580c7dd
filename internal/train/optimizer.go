package train

import (
	"fmt"
	"math"
)

// Optimizer applies gradients to parameters. Dense parameters (FC
// weights and biases) update as whole vectors; embedding tables update
// row-wise with sparse gradients, matching how production systems (and
// DLRM) treat the two parameter classes differently.
type Optimizer interface {
	// UpdateDense applies gradient g to parameter vector p in place.
	// key identifies the parameter for stateful optimizers.
	UpdateDense(key string, p, g []float32)
	// UpdateSparseRow applies gradient g to one embedding row.
	UpdateSparseRow(key string, id int, row, g []float32)
}

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float32
}

// NewSGD returns an SGD optimizer; it panics on a non-positive rate.
func NewSGD(lr float32) *SGD {
	if lr <= 0 {
		panic("train: learning rate must be positive")
	}
	return &SGD{LR: lr}
}

// UpdateDense implements Optimizer.
func (o *SGD) UpdateDense(_ string, p, g []float32) {
	for i, gi := range g {
		p[i] -= o.LR * gi
	}
}

// UpdateSparseRow implements Optimizer.
func (o *SGD) UpdateSparseRow(_ string, _ int, row, g []float32) {
	for i, gi := range g {
		row[i] -= o.LR * gi
	}
}

// AdaGrad scales each coordinate's step by the inverse square root of
// its accumulated squared gradients — the optimizer DLRM uses for
// embeddings, where row update frequencies follow the skewed ID
// popularity of Figure 14: rare rows keep large steps while hot rows
// anneal.
type AdaGrad struct {
	LR  float32
	Eps float32

	dense  map[string][]float32         // key → per-coordinate accumulator
	sparse map[string]map[int][]float32 // key → row → accumulator
}

// NewAdaGrad returns an AdaGrad optimizer.
func NewAdaGrad(lr float32) *AdaGrad {
	if lr <= 0 {
		panic("train: learning rate must be positive")
	}
	return &AdaGrad{
		LR:     lr,
		Eps:    1e-8,
		dense:  make(map[string][]float32),
		sparse: make(map[string]map[int][]float32),
	}
}

// UpdateDense implements Optimizer.
func (o *AdaGrad) UpdateDense(key string, p, g []float32) {
	acc, ok := o.dense[key]
	if !ok {
		acc = make([]float32, len(p))
		o.dense[key] = acc
	}
	if len(acc) != len(p) {
		panic(fmt.Sprintf("train: parameter %q changed size %d → %d", key, len(acc), len(p)))
	}
	o.apply(acc, p, g)
}

// UpdateSparseRow implements Optimizer.
func (o *AdaGrad) UpdateSparseRow(key string, id int, row, g []float32) {
	rows, ok := o.sparse[key]
	if !ok {
		rows = make(map[int][]float32)
		o.sparse[key] = rows
	}
	acc, ok := rows[id]
	if !ok {
		acc = make([]float32, len(row))
		rows[id] = acc
	}
	o.apply(acc, row, g)
}

func (o *AdaGrad) apply(acc, p, g []float32) {
	for i, gi := range g {
		acc[i] += gi * gi
		p[i] -= o.LR * gi / (float32(math.Sqrt(float64(acc[i]))) + o.Eps)
	}
}
