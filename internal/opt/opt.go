// Package opt implements the gradient-descent optimizers used to train the
// paper's models: plain SGD with optional momentum, and Adam — the paper's
// choice for the converting autoencoder ("Each autoencoder uses the Adam
// optimizer to update the neural network weights").
package opt

import (
	"fmt"
	"math"

	"cbnet/internal/nn"
)

// Optimizer updates parameters from their accumulated gradients and then
// clears the gradients.
type Optimizer interface {
	// Step applies one update to every parameter and zeroes the grads.
	Step(params []*nn.Param)
	// Name identifies the optimizer for logging.
	Name() string
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	LR       float32
	Momentum float32
	velocity map[*nn.Param][]float32
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum float32) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: non-positive learning rate %v", lr))
	}
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*nn.Param][]float32)}
}

// Name returns "sgd".
func (s *SGD) Name() string { return "sgd" }

// Step applies v ← µv − η∇; θ ← θ + v (or plain θ ← θ − η∇ when µ = 0).
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		g := p.Grad.Data
		w := p.Value.Data
		if s.Momentum == 0 {
			for i := range w {
				w[i] -= s.LR * g[i]
			}
		} else {
			v, ok := s.velocity[p]
			if !ok {
				v = make([]float32, len(w))
				s.velocity[p] = v
			}
			for i := range w {
				v[i] = s.Momentum*v[i] - s.LR*g[i]
				w[i] += v[i]
			}
		}
		p.Touch()
		p.ZeroGrad()
	}
}

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

// Name returns "adam".
func (a *Adam) Name() string { return "adam" }

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

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, a standard stabilizer for small-batch CNN training.
// It returns the pre-clip norm.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		sq += p.Grad.SumSquares()
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}
