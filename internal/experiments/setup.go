package experiments

import (
	"hpnn/internal/attack"
	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/train"
)

// victim bundles a trained locked model with everything the experiments
// need to attack or deploy it.
type victim struct {
	Model    *core.Model
	Key      keys.Key
	Sched    *schedule.Schedule
	Dataset  *dataset.Dataset
	OwnerAcc float64 // test accuracy with the key engaged
}

// makeDataset generates one benchmark at profile scale.
func makeDataset(p Profile, name string, seedOffset uint64) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Config{
		Name:   name,
		TrainN: p.TrainN,
		TestN:  p.TestN,
		H:      p.img(),
		W:      p.img(),
		Seed:   p.Seed + seedOffset,
	})
}

// buildModel constructs an architecture at profile scale for a dataset.
func buildModel(p Profile, arch core.Arch, ds *dataset.Dataset, seedOffset uint64) (*core.Model, error) {
	return core.NewModel(core.Config{
		Arch: arch,
		InC:  ds.C, InH: ds.H, InW: ds.W,
		Classes:    ds.Classes,
		WidthScale: p.scale(arch),
		Seed:       p.Seed + 1000 + seedOffset,
	})
}

// ownerTrain is the owner's training configuration at profile scale.
func ownerTrain(p Profile, logf Logf) core.TrainConfig {
	return core.TrainConfig{
		Epochs:    p.OwnerEpochs,
		BatchSize: p.BatchSize,
		Optimizer: p.Optimizer,
		LR:        p.LR,
		Momentum:  p.Momentum,
		Seed:      p.Seed + 7,
		Hooks:     train.Hooks{Logf: logf},
	}
}

// ftTrain is the attacker's fine-tuning configuration. The paper's default
// threat model reuses the owner's hyperparameters.
func ftTrain(p Profile) core.TrainConfig {
	return core.TrainConfig{
		Epochs:    p.FTEpochs,
		BatchSize: 16,
		Optimizer: p.Optimizer,
		LR:        p.LR,
		Momentum:  p.Momentum,
		Seed:      p.Seed + 13,
	}
}

// trainVictim generates a dataset, trains a key-locked model on it and
// evaluates the owner's accuracy.
func trainVictim(p Profile, dsName string, arch core.Arch, logf Logf) (*victim, error) {
	ds, err := makeDataset(p, dsName, seedFor(dsName))
	if err != nil {
		return nil, err
	}
	m, err := buildModel(p, arch, ds, seedFor(dsName))
	if err != nil {
		return nil, err
	}
	key := keys.Generate(rng.New(p.Seed + 40 + seedFor(dsName)))
	sched := schedule.New(keys.KeyBits, p.Seed+50)
	m.ApplyRawKey(key, sched)

	logf.printf("[%s/%s] training locked victim (%d locked neurons, %d params)",
		dsName, arch, m.LockedNeurons(), m.Net.ParamCount())
	res := core.Train(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, ownerTrain(p, nil))
	v := &victim{Model: m, Key: key, Sched: sched, Dataset: ds, OwnerAcc: res.FinalTestAcc()}
	logf.printf("[%s/%s] owner accuracy %.4f", dsName, arch, v.OwnerAcc)
	return v, nil
}

// lockedAcc evaluates the victim with locks disengaged (the stolen-model /
// baseline-architecture scenario) and restores the lock state.
func (v *victim) lockedAcc() float64 {
	v.Model.DisengageLocks()
	acc := v.Model.Accuracy(v.Dataset.TestX, v.Dataset.TestY, 64)
	v.Model.EngageLocks()
	return acc
}

// fineTune runs one attack with the profile's fine-tuning budget.
func (v *victim) fineTune(p Profile, init attack.Init, frac float64, seedOffset uint64) (attack.Result, error) {
	r, _, err := attack.FineTune(v.Model, v.Dataset, attack.FineTuneConfig{
		ThiefFrac:    frac,
		ThiefSeed:    p.Seed + 60 + seedOffset,
		Init:         init,
		AttackerSeed: p.Seed + 70 + seedOffset,
		Train:        ftTrain(p),
	})
	return r, err
}

// seedFor gives each dataset its own deterministic seed offset.
func seedFor(name string) uint64 {
	h := uint64(0)
	for _, c := range name {
		h = h*131 + uint64(c)
	}
	return h % 997
}
