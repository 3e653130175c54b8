// Package attack implements the model fine-tuning attacks of §IV-B/§IV-C:
// an adversary who has stolen a locked model's weights (white-box) loads
// them into the plain baseline architecture and retrains on a small thief
// dataset, hoping to recover the owner's accuracy.
//
// Two initializations are compared, exactly as in the paper's information-
// leakage study (Table I's last four columns and Fig. 7):
//
//   - HPNN fine-tuning: the baseline DNN is initialized with the stolen
//     obfuscated weights;
//   - Random fine-tuning: the baseline DNN is initialized with fresh random
//     weights (the stolen model is discarded).
//
// If the two attacks reach similar accuracy, the obfuscated model leaks no
// useful information beyond what the thief dataset itself provides.
package attack

import (
	"fmt"
	"os"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/modelio"
	"hpnn/internal/train"
)

// Init selects the attacker's weight initialization.
type Init int

const (
	// InitStolen is "HPNN fine-tuning": start from the stolen obfuscated
	// weights.
	InitStolen Init = iota
	// InitRandom is "random fine-tuning": start from fresh random weights.
	InitRandom
)

// String implements fmt.Stringer.
func (i Init) String() string {
	if i == InitStolen {
		return "hpnn-finetune"
	}
	return "random-finetune"
}

// FineTuneConfig describes one fine-tuning attack.
type FineTuneConfig struct {
	// ThiefFrac is the fraction α of the original training set available
	// to the attacker (§IV-B1 uses 1-10 %).
	ThiefFrac float64
	// ThiefSeed selects which samples leaked.
	ThiefSeed uint64
	// Init selects stolen-weight or random initialization.
	Init Init
	// AttackerSeed seeds the attacker's random initialization (InitRandom).
	AttackerSeed uint64
	// Train is the attacker's training configuration. The paper's default
	// threat model reuses the owner's hyperparameters; Fig. 6 sweeps them.
	Train core.TrainConfig
	// CheckpointPath, when non-empty, writes a resumable checkpoint of the
	// attacker's fine-tuning run after every epoch, so long thief-fraction
	// × learning-rate sweeps survive a restart.
	CheckpointPath string
	// Resume continues from CheckpointPath if the file exists; the
	// restored run reproduces the uninterrupted one bitwise.
	Resume bool
}

// Result is the outcome of one fine-tuning attack.
type Result struct {
	Init         Init
	ThiefFrac    float64
	ThiefSamples int
	// PreAttackAcc is the stolen model's test accuracy on the baseline
	// architecture before any retraining (the locked/no-key accuracy for
	// InitStolen, chance for InitRandom).
	PreAttackAcc float64
	// TestAcc is the per-epoch test-accuracy trajectory (Figs. 5 and 6).
	TestAcc []float64
	// FinalAcc and BestAcc summarize the trajectory.
	FinalAcc float64
	BestAcc  float64
}

// FineTune runs a fine-tuning attack against victim using ds's thief
// subset, evaluating on ds's test split. The victim model is not modified.
// It returns the attack result and the attacker's retrained model.
func FineTune(victim *core.Model, ds *dataset.Dataset, cfg FineTuneConfig) (Result, *core.Model, error) {
	if cfg.ThiefFrac < 0 || cfg.ThiefFrac > 1 {
		return Result{}, nil, fmt.Errorf("attack: thief fraction %v out of [0,1]", cfg.ThiefFrac)
	}
	trainCfg := cfg.Train

	// Resume a previously checkpointed attack run if asked: the restored
	// attacker model (weights + disengaged-lock state) and trainer state
	// replace the fresh initialization below.
	var attacker *core.Model
	if cfg.CheckpointPath != "" && cfg.Resume {
		if _, err := os.Stat(cfg.CheckpointPath); err == nil {
			m, st, err := modelio.LoadCheckpointFile(cfg.CheckpointPath)
			if err != nil {
				return Result{}, nil, fmt.Errorf("attack: loading checkpoint: %w", err)
			}
			if m.Config.Arch != victim.Config.Arch {
				return Result{}, nil, fmt.Errorf("attack: checkpoint architecture %s does not match victim %s",
					m.Config.Arch, victim.Config.Arch)
			}
			attacker = m
			trainCfg.Resume = &st
		}
	}
	if attacker == nil {
		// The attacker knows the baseline architecture (white-box
		// assumption) but not the key: locks are disengaged on the
		// attacker's copy.
		attackerCfg := victim.Config
		attackerCfg.Seed = cfg.AttackerSeed
		m, err := core.NewModel(attackerCfg)
		if err != nil {
			return Result{}, nil, err
		}
		if cfg.Init == InitStolen {
			if err := victim.CloneWeightsTo(m); err != nil {
				return Result{}, nil, err
			}
		}
		m.DisengageLocks()
		attacker = m
	}

	res := Result{Init: cfg.Init, ThiefFrac: cfg.ThiefFrac}
	res.PreAttackAcc = attacker.Accuracy(ds.TestX, ds.TestY, 64)

	thiefX, thiefY := ds.ThiefSubset(cfg.ThiefFrac, cfg.ThiefSeed)
	res.ThiefSamples = len(thiefY)
	if res.ThiefSamples == 0 {
		// α = 0: no retraining possible; the attack is the bare stolen or
		// random model.
		res.FinalAcc = res.PreAttackAcc
		res.BestAcc = res.PreAttackAcc
		return res, attacker, nil
	}

	// Checkpoint every epoch boundary through the trainer's hook bus; a
	// failed write stops the run rather than silently losing restarts.
	var ckptErr error
	if cfg.CheckpointPath != "" {
		user := trainCfg.Hooks.OnEpoch
		trainCfg.Hooks.OnEpoch = func(info train.EpochInfo) bool {
			if err := modelio.SaveCheckpointFile(cfg.CheckpointPath, attacker, info.Snapshot()); err != nil {
				ckptErr = fmt.Errorf("attack: writing checkpoint: %w", err)
				return false
			}
			if user != nil {
				return user(info)
			}
			return true
		}
	}

	// The trainer reuses the attacker network's layer scratch across steps,
	// so the fine-tuning loop — like owner training — is allocation-free in
	// steady state; sweeps over α or learning rate pay only per-run setup.
	tr, err := core.TrainChecked(attacker, thiefX, thiefY, ds.TestX, ds.TestY, trainCfg)
	if err != nil {
		return Result{}, nil, err
	}
	if ckptErr != nil {
		return Result{}, nil, ckptErr
	}
	res.TestAcc = tr.TestAcc
	res.FinalAcc = tr.FinalTestAcc()
	res.BestAcc = tr.BestTestAcc()
	return res, attacker, nil
}

// SweepLearningRates runs the hyperparameter study of Fig. 6: the same
// attack at several learning rates, returning one trajectory per rate.
func SweepLearningRates(victim *core.Model, ds *dataset.Dataset, lrs []float64, base FineTuneConfig) ([]Result, error) {
	out := make([]Result, 0, len(lrs))
	for _, lr := range lrs {
		cfg := base
		cfg.Train.LR = lr
		r, _, err := FineTune(victim, ds, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Success reports whether the attack recovered the owner's accuracy to
// within margin — the paper's criterion for a successful model theft.
func (r Result) Success(ownerAcc, margin float64) bool {
	return r.BestAcc >= ownerAcc-margin
}
