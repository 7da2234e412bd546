// Package opt implements Adam, the optimizer that trains every model here:
// the paper's choice for the converting autoencoder ("Each autoencoder uses
// the Adam optimizer to update the neural network weights"), and used for
// the classifiers too.
package opt

import (
	"fmt"
	"math"

	"cbnet/internal/nn"
)

// Adam implements Kingma & Ba's adaptive moment estimation with bias
// correction, the optimizer the paper uses for autoencoder training.
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	t                     int
	// m and v are the moment estimates, parallel to the params Step is
	// given: the same list, in the same order, every step.
	m, v [][]float32
}

// NewAdam creates an Adam optimizer with the standard defaults
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float32) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: non-positive learning rate %v", lr))
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one bias-corrected Adam update to params from their
// gradients, and zeroes each gradient as it reads it.
func (a *Adam) Step(params []*nn.Param) {
	if a.m == nil {
		a.m, a.v = make([][]float32, len(params)), make([][]float32, len(params))
		for k, p := range params {
			a.m[k], a.v[k] = make([]float32, p.Value.Len()), make([]float32, p.Value.Len())
		}
	}
	if len(params) != len(a.m) {
		panic(fmt.Sprintf("opt: Adam stepped with %d params, first with %d", len(params), len(a.m)))
	}
	a.t++
	b1t := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	b2t := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for k, p := range params {
		g, w, m, v := p.Grad().Data, p.Value.Data, a.m[k], a.v[k]
		for i := range w {
			gi := g[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mHat := m[i] / b1t
			vHat := v[i] / b2t
			w[i] -= a.LR * mHat / (float32(math.Sqrt(float64(vHat))) + a.Eps)
			g[i] = 0
		}
		p.Touch()
	}
}
