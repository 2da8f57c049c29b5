package nn

import (
	"math"

	"chatfuzz/internal/ml/tensor"
)

// Adam is the Adam optimizer with optional decoupled weight decay and
// gradient-norm clipping.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	params []*tensor.Tensor
	m, v   [][]float64
	t      int
}

// NewAdam returns an optimizer over params with standard defaults.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
	}
	return a
}

// Reset forgets every step taken: the moments are zeroed and the step
// count is 0, so the next Step is bit for bit a fresh NewAdam's over
// the same parameters.
func (a *Adam) Reset() {
	for i := range a.m {
		clear(a.m[i])
		clear(a.v[i])
	}
	a.t = 0
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// GradNorm returns the global L2 norm of all gradients.
func (a *Adam) GradNorm() float64 {
	var s float64
	for _, p := range a.params {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales gradients so the global norm does not exceed
// maxNorm; returns the pre-clip norm.
func (a *Adam) ClipGradNorm(maxNorm float64) float64 {
	norm := a.GradNorm()
	if norm > maxNorm && norm > 0 {
		k := maxNorm / norm
		for _, p := range a.params {
			for i := range p.Grad {
				p.Grad[i] *= k
			}
		}
	}
	return norm
}

// Step applies one Adam update from the accumulated gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.Grad {
			if a.WeightDecay != 0 {
				p.Data[i] -= a.LR * a.WeightDecay * p.Data[i]
			}
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
