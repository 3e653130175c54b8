package core

import (
	"fmt"

	"hpnn/internal/tensor"
	"hpnn/internal/train"
)

// TrainConfig controls a (key-dependent) training run. The same engine
// serves owner training, watermark embedding and attacker fine-tuning:
// the only difference is the model's lock state, the data it sees and the
// hooks installed. The loop itself lives in internal/train; this type is
// the model-level configuration surface.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// Optimizer selects the update rule by name: "" or "sgd" is momentum
	// SGD (the delta rule of Eq. 3 plus momentum); "adam" is Adam with
	// standard betas (Momentum below is then ignored).
	Optimizer   string
	LR          float64
	Momentum    float64
	WeightDecay float64
	// LRDecayEvery/LRDecayFactor implement the step schedule used for the
	// longer runs; 0 disables decay.
	LRDecayEvery  int
	LRDecayFactor float64
	// Schedule names the learning-rate schedule: "" or "step" uses
	// LRDecayEvery/LRDecayFactor; "cosine" anneals to MinLR over the run;
	// "constant" holds LR fixed. WarmupEpochs, when positive, prepends a
	// linear ramp up to the base rate before the named schedule begins.
	Schedule     string
	WarmupEpochs int
	MinLR        float64
	// ClipNorm caps the global gradient norm per step. 0 selects the
	// default of 5 (which stabilizes high-LR momentum runs); negative
	// values disable clipping.
	ClipNorm float64
	Seed     uint64
	// Hooks is the trainer's observer bus: per-epoch log lines, per-step
	// timing, samples/sec, evaluation callbacks and resumable state
	// snapshots for checkpointing (pair EpochInfo.Snapshot with
	// modelio.SaveCheckpoint).
	Hooks train.Hooks
	// GradAugments run in order between the backward pass and gradient
	// clipping each step; each may add regularizer terms to the parameter
	// gradients and returns the extra per-sample loss it contributed (the
	// watermark embedding paths).
	GradAugments []func() float64
	// Replicas trains data-parallel with K model replicas; 0 keeps the
	// sequential loop. The run is bitwise identical for any K (and resumes
	// across K), because the numerics are fixed by GradShards alone.
	Replicas int
	// GradShards is the gradient micro-shard count for data-parallel runs
	// (power of two, ≥ Replicas; 0 defaults to 8 when Replicas > 0).
	GradShards int
	// Resume restores trainer state captured by EpochInfo.Snapshot
	// (typically round-tripped through a modelio checkpoint record); the
	// run then continues the interrupted one bitwise. The model must
	// already hold the checkpointed weights and lock bits.
	Resume *train.State
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.LRDecayFactor == 0 {
		c.LRDecayFactor = 0.5
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// schedule builds the train.LRSchedule the config names. Cosine decays
// over the post-warmup horizon so the final epoch lands exactly on MinLR.
func (c TrainConfig) schedule() (train.LRSchedule, error) {
	var base train.LRSchedule
	switch c.Schedule {
	case "", "step":
		base = train.StepDecay{Base: c.LR, Every: c.LRDecayEvery, Factor: c.LRDecayFactor}
	case "cosine":
		base = train.Cosine{Base: c.LR, Min: c.MinLR, Epochs: c.Epochs - c.WarmupEpochs}
	case "constant", "const":
		base = train.Constant{Base: c.LR}
	default:
		return nil, fmt.Errorf("hpnn: unknown LR schedule %q (want step, cosine or constant)", c.Schedule)
	}
	if c.WarmupEpochs > 0 {
		base = train.LinearWarmup{Epochs: c.WarmupEpochs, Next: base}
	}
	return base, nil
}

// TrainResult records the per-epoch trajectory of a run — the raw series
// behind the accuracy-vs-epoch curves of Figs. 5 and 6.
type TrainResult struct {
	EpochLoss []float64
	// TestAcc holds per-epoch test accuracy when eval data was supplied.
	TestAcc []float64
	// FinalTrainAcc is the training accuracy after the last epoch.
	FinalTrainAcc float64
}

// BestTestAcc returns the best per-epoch test accuracy (0 if none).
func (r TrainResult) BestTestAcc() float64 {
	best := 0.0
	for _, a := range r.TestAcc {
		if a > best {
			best = a
		}
	}
	return best
}

// FinalTestAcc returns the last epoch's test accuracy (0 if none).
func (r TrainResult) FinalTestAcc() float64 {
	if len(r.TestAcc) == 0 {
		return 0
	}
	return r.TestAcc[len(r.TestAcc)-1]
}

// NewTrainer builds the unified training engine for m from cfg. Most
// callers want TrainChecked; the experiments and checkpointing CLIs use the
// trainer directly when they need Snapshot access between epochs.
func NewTrainer(m *Model, cfg TrainConfig) (*train.Trainer, error) {
	cfg = cfg.withDefaults()
	sched, err := cfg.schedule()
	if err != nil {
		return nil, err
	}
	return train.New(m.Net, train.Config{
		Epochs:       cfg.Epochs,
		BatchSize:    cfg.BatchSize,
		Optimizer:    cfg.Optimizer,
		LR:           cfg.LR,
		Momentum:     cfg.Momentum,
		WeightDecay:  cfg.WeightDecay,
		Schedule:     sched,
		ClipNorm:     cfg.ClipNorm,
		Seed:         cfg.Seed,
		Hooks:        cfg.Hooks,
		GradAugments: cfg.GradAugments,
		Replicas:     cfg.Replicas,
		GradShards:   cfg.GradShards,
	})
}

// TrainChecked optimizes the model on (trainX, trainY) with softmax
// cross-entropy through the unified training engine. If testX is non-nil
// the model is evaluated after every epoch (eval mode, locks in their
// current state). Invalid data or configuration returns a typed error
// (train.DataSizeError for sample/label mismatches).
func TrainChecked(m *Model, trainX *tensor.Tensor, trainY []int, testX *tensor.Tensor, testY []int, cfg TrainConfig) (TrainResult, error) {
	cfg = cfg.withDefaults()
	tr, err := NewTrainer(m, cfg)
	if err != nil {
		return TrainResult{}, err
	}
	if cfg.Resume != nil {
		if err := tr.Restore(*cfg.Resume); err != nil {
			return TrainResult{}, err
		}
	}
	var eval func() float64
	if testX != nil {
		eval = func() float64 { return m.Accuracy(testX, testY, cfg.BatchSize) }
	}
	r, err := tr.Run(trainX, trainY, eval)
	if err != nil {
		return TrainResult{}, err
	}
	res := TrainResult{EpochLoss: r.EpochLoss, TestAcc: r.TestAcc}
	res.FinalTrainAcc = m.Accuracy(trainX, trainY, cfg.BatchSize)
	return res, nil
}

// Train is TrainChecked panicking on error — the legacy shim kept for
// callers that treat misconfiguration as a programming bug.
func Train(m *Model, trainX *tensor.Tensor, trainY []int, testX *tensor.Tensor, testY []int, cfg TrainConfig) TrainResult {
	res, err := TrainChecked(m, trainX, trainY, testX, testY, cfg)
	if err != nil {
		panic(err)
	}
	return res
}
