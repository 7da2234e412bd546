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
	m, v                  map[*nn.Param][]float32
}

// NewAdam creates an Adam optimizer with the standard defaults
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float32) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: non-positive learning rate %v", lr))
	}
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param][]float32),
		v: make(map[*nn.Param][]float32),
	}
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	b1t := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	b2t := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		g := p.Grad.Data
		w := p.Value.Data
		m, ok := a.m[p]
		if !ok {
			m = make([]float32, len(w))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float32, len(w))
			a.v[p] = v
		}
		for i := range w {
			gi := g[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mHat := m[i] / b1t
			vHat := v[i] / b2t
			w[i] -= a.LR * mHat / (float32(math.Sqrt(float64(vHat))) + a.Eps)
		}
		p.Touch()
		p.ZeroGrad()
	}
}
