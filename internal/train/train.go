// Package train implements mini-batch SGD training for recommendation
// models: full backpropagation through the Top-MLP, the Cat/Dot feature
// interaction, the Bottom-MLP, and sparse scatter-gradients into the
// embedding tables, with binary-cross-entropy loss on the predicted
// click-through rate.
//
// The paper studies inference, but notes (§II-A) that sparse features
// "not only make training more challenging but also require
// intrinsically different operations"; this package provides those
// operations so the library covers the full DLRM-style workflow. The
// embedding gradient is sparse — only gathered rows are touched —
// mirroring production training systems.
package train

import (
	"fmt"
	"math"

	"recsys/internal/model"
	"recsys/internal/nn"
	"recsys/internal/tensor"
)

// Trainer performs optimization steps on a materialized model.
type Trainer struct {
	m   *model.Model
	opt Optimizer
}

// NewTrainer wraps a model built with model.Build, using plain SGD at
// the given learning rate. It panics on a nil model, a non-positive
// learning rate, or a model whose tables hold int8 rows.
func NewTrainer(m *model.Model, lr float32) *Trainer {
	return NewTrainerWithOptimizer(m, NewSGD(lr))
}

// NewTrainerWithOptimizer wraps a model with an explicit optimizer
// (e.g. AdaGrad for production-style sparse training). Training reads
// and updates the fp32 embedding rows, so a model whose tables hold
// int8 rows panics here with an error wrapping model.ErrInt8Only
// rather than on the first step's nil table.
func NewTrainerWithOptimizer(m *model.Model, opt Optimizer) *Trainer {
	if m == nil {
		panic("train: nil model")
	}
	if opt == nil {
		panic("train: nil optimizer")
	}
	if m.Quantized() {
		panic(fmt.Errorf("train: %s: %w", m.Config.Name, model.ErrInt8Only))
	}
	return &Trainer{m: m, opt: opt}
}

// tape records the intermediates of one forward pass.
type tape struct {
	bottomIn  []*tensor.Tensor // input to each bottom FC
	bottomOut []*tensor.Tensor // post-ReLU output of each bottom FC
	parts     []*tensor.Tensor // concat inputs (bottom output + pooled embeddings)
	concatOut *tensor.Tensor
	topIn     []*tensor.Tensor // input to each top FC
	probs     []float32        // sigmoid outputs
}

// Step runs one SGD step on a batch: forward, BCE loss, backward, and
// in-place parameter updates. labels must hold one {0,1} click label
// per sample. It returns the mean binary-cross-entropy loss of the
// batch (measured before the update).
func (t *Trainer) Step(req model.Request, labels []float32) float32 {
	if len(labels) != req.Batch {
		panic(fmt.Sprintf("train: %d labels for batch %d", len(labels), req.Batch))
	}
	tp := t.forward(req)
	loss := BCELoss(tp.probs, labels)
	t.backward(req, tp, labels)
	return loss
}

// Loss evaluates the mean BCE loss without updating parameters.
func (t *Trainer) Loss(req model.Request, labels []float32) float32 {
	if len(labels) != req.Batch {
		panic(fmt.Sprintf("train: %d labels for batch %d", len(labels), req.Batch))
	}
	return BCELoss(t.forward(req).probs, labels)
}

func (t *Trainer) forward(req model.Request) *tape {
	m := t.m
	tp := &tape{}
	if m.Bottom != nil {
		x := req.Dense
		for _, fc := range m.Bottom.Layers {
			tp.bottomIn = append(tp.bottomIn, x)
			x = fc.Forward(x)
			nn.ReLUInPlace(x) // MLP built with FinalReLU=true
			tp.bottomOut = append(tp.bottomOut, x)
		}
		tp.parts = append(tp.parts, x)
	}
	for i, op := range m.SLS {
		tp.parts = append(tp.parts, op.Forward(req.SparseIDs[i], req.Batch))
	}
	tp.concatOut = m.ConcatOp.Forward(tp.parts)
	x := tp.concatOut
	if m.Interact != nil {
		x = m.Interact.Forward(x)
	}
	for i, fc := range m.Top.Layers {
		tp.topIn = append(tp.topIn, x)
		x = fc.Forward(x)
		if i+1 < len(m.Top.Layers) {
			nn.ReLUInPlace(x)
		}
	}
	probs := make([]float32, req.Batch)
	for i := range probs {
		probs[i] = sigmoid(x.At(i, 0))
	}
	tp.probs = probs
	return tp
}

func (t *Trainer) backward(req model.Request, tp *tape, labels []float32) {
	m := t.m
	batch := req.Batch

	// d(BCE)/d(logit) = (p - y) / batch.
	grad := tensor.New(batch, 1)
	for i := 0; i < batch; i++ {
		grad.Set((tp.probs[i]-labels[i])/float32(batch), i, 0)
	}

	// Top-MLP, reverse order. ReLU sits between layers (not after the
	// last); its mask is recoverable from the next layer's input.
	for i := len(m.Top.Layers) - 1; i >= 0; i-- {
		grad = t.fcBackward(m.Top.Layers[i], tp.topIn[i], grad)
		if i > 0 {
			reluBackward(grad, tp.topIn[i])
		}
	}

	// Interaction.
	if m.Interact != nil {
		grad = dotBackward(m.Interact, tp.concatOut, grad)
	}

	// Concat split.
	partGrads := splitConcat(m.ConcatOp, grad)

	// Sparse scatter-gradient into embedding tables.
	off := 0
	if m.Bottom != nil {
		off = 1
	}
	for i, op := range m.SLS {
		t.slsBackward(op, req.SparseIDs[i], batch, partGrads[off+i])
	}

	// Bottom-MLP.
	if m.Bottom != nil {
		g := partGrads[0]
		for i := len(m.Bottom.Layers) - 1; i >= 0; i-- {
			reluBackward(g, tp.bottomOut[i]) // FinalReLU: every layer has one
			g = t.fcBackward(m.Bottom.Layers[i], tp.bottomIn[i], g)
		}
	}
}

// fcBackward computes dX for Y = X·W + b given dY, then hands dW and
// db to the optimizer.
func (t *Trainer) fcBackward(fc *nn.FC, x, dY *tensor.Tensor) *tensor.Tensor {
	// dX = dY · Wᵀ (with the pre-update weights).
	dX := tensor.New(x.Dim(0), fc.In)
	tensor.Gemm(dY, tensor.Transpose(fc.W), dX)

	// dW = Xᵀ · dY.
	dW := tensor.New(fc.In, fc.Out)
	tensor.Gemm(tensor.Transpose(x), dY, dW)
	t.opt.UpdateDense(fc.Name()+"/W", fc.W.Data(), dW.Data())

	// db = column sums of dY.
	dB := make([]float32, fc.Out)
	for i := 0; i < dY.Dim(0); i++ {
		row := dY.Row(i)
		for j, v := range row {
			dB[j] += v
		}
	}
	t.opt.UpdateDense(fc.Name()+"/b", fc.B, dB)
	// The serving hot path caches W in packed form; drop the cache so
	// a model being fine-tuned while served never runs stale weights.
	fc.InvalidatePacked()
	return dX
}

// slsBackward scatters the pooled-output gradient back into the
// gathered table rows: each row in slice k receives dOut[k]. Rows
// gathered more than once in a slice receive the gradient once per
// occurrence, matching the forward sum.
func (t *Trainer) slsBackward(op *nn.SLSOp, ids []int, batch int, dOut *tensor.Tensor) {
	key := op.Name()
	for k := 0; k < batch; k++ {
		g := dOut.Row(k)
		for _, id := range ids[k*op.Lookups : (k+1)*op.Lookups] {
			t.opt.UpdateSparseRow(key, id, op.Table.W.Row(id), g)
		}
	}
}

// reluBackward zeroes gradient entries where the activation output was
// zero. out is the post-ReLU activation.
func reluBackward(grad, out *tensor.Tensor) {
	g, o := grad.Data(), out.Data()
	for i := range g {
		if o[i] <= 0 {
			g[i] = 0
		}
	}
}

// dotBackward backpropagates through DotInteraction: the input holds
// NumVec vectors of width Dim per sample; the output is the dense
// vector (IncludeDense) followed by the strictly-lower-triangle pair
// dot products.
func dotBackward(d *nn.DotInteraction, in, dOut *tensor.Tensor) *tensor.Tensor {
	batch := in.Dim(0)
	dIn := tensor.New(batch, d.NumVec*d.Dim)
	for b := 0; b < batch; b++ {
		x := in.Row(b)
		g := dOut.Row(b)
		dx := dIn.Row(b)
		off := 0
		if d.IncludeDense {
			copy(dx[:d.Dim], g[:d.Dim])
			off = d.Dim
		}
		for i := 1; i < d.NumVec; i++ {
			vi := x[i*d.Dim : (i+1)*d.Dim]
			for j := 0; j < i; j++ {
				vj := x[j*d.Dim : (j+1)*d.Dim]
				dz := g[off]
				off++
				dvi := dx[i*d.Dim : (i+1)*d.Dim]
				dvj := dx[j*d.Dim : (j+1)*d.Dim]
				for c := 0; c < d.Dim; c++ {
					dvi[c] += dz * vj[c]
					dvj[c] += dz * vi[c]
				}
			}
		}
	}
	return dIn
}

// splitConcat slices the concatenated gradient back into per-part
// gradients.
func splitConcat(c *nn.Concat, grad *tensor.Tensor) []*tensor.Tensor {
	batch := grad.Dim(0)
	parts := make([]*tensor.Tensor, len(c.Widths))
	off := 0
	for i, w := range c.Widths {
		p := tensor.New(batch, w)
		for b := 0; b < batch; b++ {
			copy(p.Row(b), grad.Row(b)[off:off+w])
		}
		parts[i] = p
		off += w
	}
	return parts
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// BCELoss is mean binary cross-entropy, clamped for numerical safety:
// the loss the trainer minimizes and the online updater's quality gate
// measures.
func BCELoss(probs, labels []float32) float32 {
	const eps = 1e-7
	var sum float64
	for i, p := range probs {
		pp := float64(p)
		if pp < eps {
			pp = eps
		}
		if pp > 1-eps {
			pp = 1 - eps
		}
		y := float64(labels[i])
		sum += -(y*math.Log(pp) + (1-y)*math.Log(1-pp))
	}
	return float32(sum / float64(len(probs)))
}
