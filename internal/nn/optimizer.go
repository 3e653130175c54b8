package nn

import (
	"fmt"
	"math"

	"hpnn/internal/tensor"
)

// Optimizer updates network parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and zeroes the gradients.
	Step(params []*Param)
	// SetLR changes the learning rate (used by schedules and the Fig. 6
	// hyperparameter sweeps).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	// ExportState snapshots the optimizer's per-parameter slots (velocity,
	// moments) aligned with params. The copy is deep, so a checkpoint taken
	// mid-run is immune to later steps.
	ExportState(params []*Param) OptState
	// ImportState restores a snapshot taken by ExportState against the same
	// parameter list (same order, same shapes). A resumed run continues the
	// original update sequence bitwise.
	ImportState(params []*Param, st OptState) error
}

// OptState is a portable snapshot of an optimizer's internal slots. Slots
// is aligned with the parameter list handed to ExportState/ImportState:
// Slots[i] holds the state vectors of params[i] — one vector (velocity)
// for momentum SGD, two (first and second moments) for Adam, none before
// the slot is first touched. It is the unit the modelio checkpoint format
// serializes for resumable training.
type OptState struct {
	Kind  string        // "sgd" or "adam"
	Step  int           // Adam's bias-correction counter; 0 for SGD
	Slots [][][]float64 // per-param state vectors, possibly empty
}

// SGD is stochastic gradient descent with optional momentum and L2 weight
// decay. With Momentum == 0 it is the plain delta rule of Eq. (3).
type SGD struct {
	Rate        float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer with the given learning rate.
//
//hpnn:allow(unused) core's TestTheorem1 steps plain SGD with it
func NewSGD(lr float64) *SGD { return &SGD{Rate: lr} }

// NewMomentumSGD returns SGD with momentum and weight decay, the
// configuration used for the CNN training runs.
func NewMomentumSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{Rate: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.Rate }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.Rate = lr }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		g := p.Grad
		if s.WeightDecay != 0 {
			g.AddScaled(s.WeightDecay, p.Value)
		}
		if s.Momentum != 0 {
			if s.velocity == nil {
				s.velocity = make(map[*Param]*tensor.Tensor)
			}
			v := s.velocity[p]
			if v == nil {
				v = tensor.New(p.Value.Shape...)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum)
			v.AddScaled(1, g)
			p.Value.AddScaled(-s.Rate, v)
		} else {
			p.Value.AddScaled(-s.Rate, g)
		}
		p.ZeroGrad()
	}
}

// ExportState implements Optimizer: one velocity vector per param (none
// while momentum is unused or before the first step allocates it).
func (s *SGD) ExportState(params []*Param) OptState {
	st := OptState{Kind: "sgd", Slots: make([][][]float64, len(params))}
	for i, p := range params {
		if v := s.velocity[p]; v != nil {
			st.Slots[i] = [][]float64{append([]float64(nil), v.Data...)}
		}
	}
	return st
}

// ImportState implements Optimizer.
func (s *SGD) ImportState(params []*Param, st OptState) error {
	if st.Kind != "sgd" {
		return fmt.Errorf("nn: cannot import %q optimizer state into SGD", st.Kind)
	}
	if len(st.Slots) != len(params) {
		return fmt.Errorf("nn: SGD state has %d parameter slots, want %d", len(st.Slots), len(params))
	}
	for i, p := range params {
		vecs := st.Slots[i]
		if len(vecs) == 0 {
			delete(s.velocity, p)
			continue
		}
		if len(vecs) != 1 {
			return fmt.Errorf("nn: SGD slot %d has %d vectors, want 1", i, len(vecs))
		}
		if len(vecs[0]) != p.Value.Len() {
			return fmt.Errorf("nn: SGD slot %d sized %d, parameter %q needs %d",
				i, len(vecs[0]), p.Name, p.Value.Len())
		}
		if s.velocity == nil {
			s.velocity = make(map[*Param]*tensor.Tensor)
		}
		v := tensor.New(p.Value.Shape...)
		copy(v.Data, vecs[0])
		s.velocity[p] = v
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	Rate, Beta1, Beta2, Eps float64
	WeightDecay             float64

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.Rate }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.Rate = lr }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param]*tensor.Tensor)
		a.v = make(map[*Param]*tensor.Tensor)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		g := p.Grad
		if a.WeightDecay != 0 {
			g.AddScaled(a.WeightDecay, p.Value)
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.Value.Shape...)
			v = tensor.New(p.Value.Shape...)
			a.m[p] = m
			a.v[p] = v
		}
		for i, gi := range g.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*gi
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*gi*gi
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.Value.Data[i] -= a.Rate * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// ExportState implements Optimizer: first and second moment vectors per
// param plus the shared step counter driving bias correction.
func (a *Adam) ExportState(params []*Param) OptState {
	st := OptState{Kind: "adam", Step: a.t, Slots: make([][][]float64, len(params))}
	for i, p := range params {
		m, v := a.m[p], a.v[p]
		if m == nil || v == nil {
			continue
		}
		st.Slots[i] = [][]float64{
			append([]float64(nil), m.Data...),
			append([]float64(nil), v.Data...),
		}
	}
	return st
}

// ImportState implements Optimizer.
func (a *Adam) ImportState(params []*Param, st OptState) error {
	if st.Kind != "adam" {
		return fmt.Errorf("nn: cannot import %q optimizer state into Adam", st.Kind)
	}
	if len(st.Slots) != len(params) {
		return fmt.Errorf("nn: Adam state has %d parameter slots, want %d", len(st.Slots), len(params))
	}
	if st.Step < 0 {
		return fmt.Errorf("nn: Adam state has negative step count %d", st.Step)
	}
	a.t = st.Step
	for i, p := range params {
		vecs := st.Slots[i]
		if len(vecs) == 0 {
			delete(a.m, p)
			delete(a.v, p)
			continue
		}
		if len(vecs) != 2 {
			return fmt.Errorf("nn: Adam slot %d has %d vectors, want 2 (m, v)", i, len(vecs))
		}
		if len(vecs[0]) != p.Value.Len() || len(vecs[1]) != p.Value.Len() {
			return fmt.Errorf("nn: Adam slot %d sized %d/%d, parameter %q needs %d",
				i, len(vecs[0]), len(vecs[1]), p.Name, p.Value.Len())
		}
		if a.m == nil {
			a.m = make(map[*Param]*tensor.Tensor)
			a.v = make(map[*Param]*tensor.Tensor)
		}
		m := tensor.New(p.Value.Shape...)
		v := tensor.New(p.Value.Shape...)
		copy(m.Data, vecs[0])
		copy(v.Data, vecs[1])
		a.m[p], a.v[p] = m, v
	}
	return nil
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm. Returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// StepDecay returns lr decayed by factor every interval epochs, the
// schedule used by the longer CNN runs.
func StepDecay(base float64, epoch, interval int, factor float64) float64 {
	if interval <= 0 {
		return base
	}
	return base * math.Pow(factor, float64(epoch/interval))
}
