// Package watermark implements the white-box DNN watermarking baseline the
// paper positions HPNN against (§I/§II, refs [7,11,19,23]): ownership bits
// embedded into a weight tensor's distribution during training via an
// Uchida-style projection regularizer.
//
// Watermarks let an owner *claim* a stolen model — extract the signature
// and prove ownership — but only if the owner can inspect the model or
// query the pirate service. The paper's argument is that a leaked model
// reused privately bypasses watermark inspection entirely, while HPNN
// prevents the unauthorized use itself. This package makes that comparison
// concrete: embed a watermark, steal the model, fine-tune it, and measure
// (a) whether the signature survives (usually yes — watermarks are robust)
// and (b) whether that helped at all in the private-deployment threat
// model (no: detection requires access the owner does not have).
package watermark

import (
	"fmt"
	"math"

	"hpnn/internal/core"
	"hpnn/internal/nn"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// Config describes a watermark to embed.
type Config struct {
	// Bits is the ownership signature length.
	Bits int
	// Strength is the regularizer weight λ.
	Strength float64
	// Seed derives the signature and the secret projection matrix.
	Seed uint64
	// ParamIndex selects which parameter tensor carries the watermark.
	// Negative selects the largest tensor automatically (recommended:
	// small carriers cannot absorb long signatures without residual bit
	// errors).
	ParamIndex int
}

func (c Config) withDefaults() Config {
	if c.Bits == 0 {
		c.Bits = 64
	}
	if c.Strength == 0 {
		c.Strength = 0.05
	}
	return c
}

// Mark is the owner's secret watermarking material.
type Mark struct {
	cfg        Config
	signature  []byte
	projection *tensor.Tensor // [Bits, paramLen]
	// z and dz hold the projection responses and their gradient:
	// regularize runs once per optimizer step, so its scratch is sized
	// once rather than reallocated per call.
	z, dz []float64
}

// New derives a signature and projection for the given model and config.
func New(m *core.Model, cfg Config) (*Mark, error) {
	cfg = cfg.withDefaults()
	params := m.Net.Params()
	if cfg.ParamIndex < 0 {
		best := 0
		for i, p := range params {
			if p.Value.Len() > params[best].Value.Len() {
				best = i
			}
		}
		cfg.ParamIndex = best
	}
	if cfg.ParamIndex >= len(params) {
		return nil, fmt.Errorf("watermark: parameter index %d out of range", cfg.ParamIndex)
	}
	p := params[cfg.ParamIndex]
	r := rng.New(cfg.Seed)
	sig := make([]byte, cfg.Bits)
	for i := range sig {
		sig[i] = byte(r.Intn(2))
	}
	proj := tensor.New(cfg.Bits, p.Value.Len())
	proj.FillNorm(r, 0, 1/math.Sqrt(float64(p.Value.Len())))
	return &Mark{
		cfg: cfg, signature: sig, projection: proj,
		z: make([]float64, cfg.Bits), dz: make([]float64, cfg.Bits),
	}, nil
}

// regularize adds λ·∂R/∂w to the carrier tensor's gradient, where
// R = BCE(σ(X·w), signature), and returns R.
func (w *Mark) regularize(p *nn.Param) float64 {
	z, dz := w.z, w.dz
	tensor.MatVecInto(z, w.projection, p.Value.Data)
	loss := 0.0
	bits := float64(len(z))
	// dR/dz_i = σ(z_i) − b_i (per-bit, not averaged: averaging makes the
	// embedding force vanish against the task gradient); dR/dw = Xᵀ dR/dz.
	for i, v := range z {
		s := 1 / (1 + math.Exp(-v))
		b := float64(w.signature[i])
		loss += -(b*math.Log(math.Max(s, 1e-12)) + (1-b)*math.Log(math.Max(1-s, 1e-12)))
		dz[i] = s - b
	}
	loss /= bits
	cols := p.Value.Len()
	for i, d := range dz {
		if d == 0 {
			continue
		}
		row := w.projection.Data[i*cols : (i+1)*cols]
		scaled := w.cfg.Strength * d
		for j, xv := range row {
			p.Grad.Data[j] += scaled * xv
		}
	}
	return loss
}

// Extract reads the signature back from a (possibly stolen and modified)
// model: bit i = [X·w]_i > 0.
func (w *Mark) Extract(m *core.Model) ([]byte, error) {
	params := m.Net.Params()
	if w.cfg.ParamIndex >= len(params) {
		return nil, fmt.Errorf("watermark: model has no parameter %d", w.cfg.ParamIndex)
	}
	p := params[w.cfg.ParamIndex]
	if p.Value.Len() != w.projection.Shape[1] {
		return nil, fmt.Errorf("watermark: carrier size %d does not match projection %d",
			p.Value.Len(), w.projection.Shape[1])
	}
	z := w.z
	tensor.MatVecInto(z, w.projection, p.Value.Data)
	bits := make([]byte, len(z))
	for i, v := range z {
		if v > 0 {
			bits[i] = 1
		}
	}
	return bits, nil
}

// BitErrorRate compares an extraction against the true signature.
func (w *Mark) BitErrorRate(extracted []byte) float64 {
	if len(extracted) != len(w.signature) {
		return 1
	}
	errs := 0
	for i := range extracted {
		if extracted[i] != w.signature[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(w.signature))
}

// Detected reports ownership at the conventional BER < 0.05 threshold.
func (w *Mark) Detected(m *core.Model) (bool, float64, error) {
	bits, err := w.Extract(m)
	if err != nil {
		return false, 1, err
	}
	ber := w.BitErrorRate(bits)
	return ber < 0.05, ber, nil
}

// TrainEmbedded trains the model on (x, y) while embedding the watermark:
// the unified training engine with the projection regularizer installed
// as a gradient-augmentation hook, adding λ·∂R/∂w to the carrier tensor's
// gradient each step.
//
// Embedding used to run its own copy of the epoch loop with a divergent
// shuffle-seed formula; it now shares the Trainer (and train.ShuffleSeed)
// with owner training and the attacks, so identically-seeded runs shuffle
// identically across all three paths. EXPERIMENTS.md records the
// (intentional, seeded) watermark-curve change.
func TrainEmbedded(m *core.Model, w *Mark, trainX *tensor.Tensor, trainY []int, testX *tensor.Tensor, testY []int, cfg core.TrainConfig) core.TrainResult {
	carrier := m.Net.Params()[w.cfg.ParamIndex]
	// Prepended: the regularizer runs before the caller's hooks, so their
	// gradient contributions accumulate in a fixed order.
	cfg.GradAugments = append([]func() float64{func() float64 {
		return w.cfg.Strength * w.regularize(carrier)
	}}, cfg.GradAugments...)
	return core.Train(m, trainX, trainY, testX, testY, cfg)
}
