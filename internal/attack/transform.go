package attack

import (
	"fmt"
	"math"
	"sort"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/rng"
)

// Transformation attacks (§I): techniques pirates use to "cleverly modify
// model parameters without affecting the functionality" — positive
// scaling (ReLU networks are scale-equivariant), small additive noise and
// magnitude pruning. Against watermarking these defeat ownership checks;
// against HPNN the question is the opposite: can any cheap weight
// transformation recover usable accuracy from a stolen locked model? The
// lock is a sign structure, which none of these transformations touch, so
// the locked model stays collapsed — quantified by TransformSweep.

// Transform names a weight transformation.
type Transform string

// Supported transformations.
const (
	// TransformScale multiplies every weight of selected layers by a
	// positive constant (functionality-preserving on ReLU nets when
	// applied uniformly per layer pair).
	TransformScale Transform = "scale"
	// TransformNoise adds small Gaussian noise relative to each
	// parameter tensor's scale.
	TransformNoise Transform = "noise"
	// TransformPrune zeroes the smallest-magnitude fraction of each
	// parameter tensor.
	TransformPrune Transform = "prune"
)

// TransformConfig parameterizes one transformation attack.
type TransformConfig struct {
	Kind Transform
	// Strength: scale factor for scale (e.g. 1.5), relative noise std
	// for noise (e.g. 0.05), pruned fraction for prune (e.g. 0.3).
	Strength float64
	Seed     uint64
}

// TransformResult reports accuracy after transforming stolen weights.
type TransformResult struct {
	Config TransformConfig
	// NoKeyAcc is the transformed stolen model on the baseline
	// architecture — the piracy scenario.
	NoKeyAcc float64
	// WithKeyAcc is the transformed model under the true key: how much
	// damage the transformation does to the *legitimate* function
	// (watermark-evasion transformations must keep this high to be
	// useful against watermark defenses; against HPNN they gain nothing
	// either way).
	WithKeyAcc float64
}

// ApplyTransform mutates a model's parameters in place.
func ApplyTransform(m *core.Model, cfg TransformConfig) error {
	r := rng.New(cfg.Seed)
	for _, p := range m.Net.Params() {
		data := p.Value.Data
		switch cfg.Kind {
		case TransformScale:
			if cfg.Strength <= 0 {
				return fmt.Errorf("attack: scale strength must be positive")
			}
			for i := range data {
				data[i] *= cfg.Strength
			}
		case TransformNoise:
			std := cfg.Strength * p.Value.MaxAbs()
			for i := range data {
				data[i] += r.NormScaled(0, std)
			}
		case TransformPrune:
			if cfg.Strength < 0 || cfg.Strength > 1 {
				return fmt.Errorf("attack: prune fraction %v out of [0,1]", cfg.Strength)
			}
			mags := make([]float64, len(data))
			for i, v := range data {
				mags[i] = math.Abs(v)
			}
			sort.Float64s(mags)
			cut := mags[int(float64(len(mags)-1)*cfg.Strength)]
			for i := range data {
				if math.Abs(data[i]) <= cut {
					data[i] = 0
				}
			}
		default:
			return fmt.Errorf("attack: unknown transform %q", cfg.Kind)
		}
	}
	return nil
}

// TransformSweep clones the victim, applies each transformation and
// evaluates both usage scenarios. The victim is untouched.
func TransformSweep(victim *core.Model, ds *dataset.Dataset, cfgs []TransformConfig) ([]TransformResult, error) {
	out := make([]TransformResult, 0, len(cfgs))
	for _, cfg := range cfgs {
		clone, err := core.NewModel(victim.Config)
		if err != nil {
			return nil, err
		}
		if err := victim.CloneWeightsTo(clone); err != nil {
			return nil, err
		}
		for i, l := range victim.Locks() {
			clone.Locks()[i].SetBits(l.Bits())
		}
		if err := ApplyTransform(clone, cfg); err != nil {
			return nil, err
		}
		res := TransformResult{Config: cfg}
		clone.EngageLocks()
		res.WithKeyAcc = clone.Accuracy(ds.TestX, ds.TestY, 64)
		clone.DisengageLocks()
		res.NoKeyAcc = clone.Accuracy(ds.TestX, ds.TestY, 64)
		out = append(out, res)
	}
	return out, nil
}
