package nn

import (
	"math"

	"recsys/internal/tensor"
)

// SigmoidInPlace applies the logistic function element-wise. The final
// Top-FC output of a recommendation model passes through Sigmoid to
// produce the predicted click-through rate.
func SigmoidInPlace(t *tensor.Tensor) {
	d := t.Data()
	for i, v := range d {
		d[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// Activation is an explicit element-wise activation op over a tensor of
// the given width, used so that activation cycles appear in operator
// breakdowns (the "Activ." bar of Figure 4).
type Activation struct {
	// Width is the number of elements per sample the activation touches.
	Width int
	// Sigmoid selects the logistic function; otherwise ReLU.
	Sigmoid bool
	label   string
}

// NewActivation returns an activation op over width elements per sample.
func NewActivation(label string, width int, sigmoid bool) *Activation {
	if width <= 0 {
		panic("nn: activation width must be positive")
	}
	return &Activation{Width: width, Sigmoid: sigmoid, label: label}
}

// Name returns the op label.
func (a *Activation) Name() string { return a.label }

// Kind reports KindActivation.
func (a *Activation) Kind() Kind { return KindActivation }

// Stats reports one FLOP per element for ReLU and four for Sigmoid
// (exp, add, div, negate), with a read and write of every element.
func (a *Activation) Stats(batch int) OpStats {
	elems := batch * a.Width
	flopsPer := 1.0
	if a.Sigmoid {
		flopsPer = 4.0
	}
	return OpStats{
		FLOPs:      flopsPer * float64(elems),
		ReadBytes:  bytesF32(elems),
		WriteBytes: bytesF32(elems),
	}
}
