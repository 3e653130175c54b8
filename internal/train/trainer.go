// Package train is the single training engine of the HPNN reproduction:
// every SGD loop in the system — the owner's key-dependent training
// (Eq. 1–4), watermark embedding, and the fine-tuning attack sweeps of
// Table III — is a thin configuration of the Trainer in this package.
//
// The Trainer owns the epoch/step loop and exposes:
//
//   - a pluggable nn.Optimizer selected by name (momentum SGD or Adam);
//   - an LRSchedule (step decay, cosine annealing, linear warmup);
//   - global gradient-norm clipping;
//   - a hook bus (OnStep/OnEpoch/OnEval) carrying step timing and
//     samples/sec, so experiments and CLIs stop re-deriving throughput;
//   - checkpoint/resume: Snapshot captures optimizer slots, the schedule
//     position, the shuffle-seed stream and the trajectory so far, and
//     Restore continues a killed run **bitwise** — the same determinism
//     bar the workspace execution engine pins for single steps.
//
// The steady-state step is allocation-free: the loss-gradient buffer and
// every layer's scratch are reused across steps (see nn.Layer's contract),
// and hook dispatch costs nothing when no hook is installed.
package train

import (
	"fmt"
	"time"

	"hpnn/internal/dataset"
	"hpnn/internal/nn"
	"hpnn/internal/tensor"
)

// Config parameterizes a Trainer. The zero value selects the defaults the
// old inline loops used: 10 epochs, batch 32, LR 0.05, momentum SGD,
// constant schedule, clip norm 5.
type Config struct {
	Epochs    int
	BatchSize int
	// Optimizer selects the update rule by name: "" or "sgd" is SGD with
	// the Momentum/WeightDecay fields below; "adam" is Adam with standard
	// betas (Momentum is ignored, WeightDecay still applies).
	Optimizer   string
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Schedule drives the per-epoch learning rate; nil holds LR constant.
	Schedule LRSchedule
	// ClipNorm caps the global gradient norm per step. 0 selects the
	// default of 5 (which stabilizes high-LR momentum runs); negative
	// values disable clipping.
	ClipNorm float64
	// Seed drives the per-epoch batch shuffle. Epoch e shuffles with
	// ShuffleSeed(Seed, e), a pure function — which is why resume needs no
	// serialized RNG cursor beyond the seed and epoch index.
	Seed uint64
	// Hooks is the observer bus; all fields are optional.
	Hooks Hooks
	// GradAugments run in order after the backward pass and before
	// gradient clipping on every step. Each may add regularizer terms to
	// the parameter gradients in place (the watermark embedding paths) and
	// returns the extra per-sample loss it contributed, which the Trainer
	// folds into the reported step and epoch losses. In data-parallel runs
	// the hooks execute on the master network after the reduced gradient
	// has landed, so they compose with any replica count.
	GradAugments []func() float64

	// Replicas selects data-parallel training with K model replicas; 0 (or
	// unset) keeps the sequential step loop bitwise-unchanged. Replicas is
	// purely an execution-width knob: for any K the run is bitwise
	// identical, because the numerics are fixed by GradShards (see
	// replica.go). Replicas must divide GradShards.
	Replicas int
	// GradShards is the number of micro-shards each step's batch is split
	// into — the knob that fixes the gradient-reduction tree shape and
	// therefore the numerics of a data-parallel run. It must be a power of
	// two ≥ Replicas; 0 defaults to 8 when Replicas > 0. Setting
	// GradShards > 0 with Replicas == 0 runs the replica engine with one
	// replica (useful for pinning K-invariance in tests). Note GradShards
	// = 1 reproduces the sequential loop's numerics exactly; GradShards >
	// 1 changes gradient rounding (different but equally valid sums).
	GradShards int
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if c.Schedule == nil {
		c.Schedule = Constant{Base: c.LR}
	}
	if c.GradShards > 0 && c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas > 0 && c.GradShards == 0 {
		c.GradShards = 8
	}
	return c
}

// Hooks is the Trainer's observer bus. Every field may be nil; dispatch
// is skipped (and step timing not even sampled) for absent hooks.
type Hooks struct {
	// Logf receives one formatted line per epoch.
	Logf func(format string, args ...any)
	// OnStep runs after every optimizer step with timing information.
	OnStep func(StepInfo)
	// OnEval runs after every test-set evaluation.
	OnEval func(epoch int, acc float64)
	// OnEpoch runs at the end of every epoch; returning false stops the
	// run early (the hook point for checkpointing and early stopping).
	OnEpoch func(EpochInfo) bool
}

// StepInfo describes one completed optimizer step.
type StepInfo struct {
	Epoch      int // 0-based epoch index
	Step       int // 0-based step within the epoch
	GlobalStep int // steps completed by this Trainer across epochs
	Loss       float64
	Batch      int // samples in this step's minibatch
	LR         float64
	Duration   time.Duration
}

// EpochInfo describes one completed epoch.
type EpochInfo struct {
	Epoch   int
	Loss    float64 // mean training loss over the epoch
	TestAcc float64 // valid when HasEval
	HasEval bool
	Steps   int
	Samples int
	// Duration covers the training steps only (evaluation excluded), so
	// SamplesPerSec is a pure training-throughput figure.
	Duration      time.Duration
	SamplesPerSec float64
	// Trajectory is a read-only view of the run's per-epoch series so far.
	Trajectory Result
	// Snapshot captures the full resumable state at this epoch boundary;
	// pair it with the model in a modelio checkpoint record.
	Snapshot func() State
}

// Result records the per-epoch trajectory of a run — the raw series
// behind the accuracy-vs-epoch curves of Figs. 5 and 6.
type Result struct {
	EpochLoss []float64
	TestAcc   []float64
	// Stopped is true when an OnEpoch hook ended the run early.
	Stopped bool
}

// State is everything beyond the model weights that a bitwise resume
// needs: where the run is (NextEpoch doubles as the LR-schedule position
// and — with Seed — the shuffle-stream position), the optimizer's slot
// state, and the trajectory recorded so far. modelio serializes it next
// to the model in a versioned checkpoint record.
type State struct {
	NextEpoch int
	Seed      uint64
	Schedule  string // descriptor of the schedule that produced the run
	Optimizer nn.OptState
	EpochLoss []float64
	TestAcc   []float64
	// Shards records the gradient micro-shard count the run was produced
	// with (0 for the sequential loop). The replica count is deliberately
	// NOT recorded: a run trained at K=4 resumes bitwise at K=2, because
	// only Shards fixes the numerics.
	Shards int
}

// DataSizeError reports a sample/label count mismatch. It replaces the
// panic the old inline loop raised; core.Train keeps a panicking shim for
// legacy callers.
type DataSizeError struct {
	Samples, Labels int
}

// Error implements error.
func (e *DataSizeError) Error() string {
	return fmt.Sprintf("train: %d samples vs %d labels", e.Samples, e.Labels)
}

// ShuffleSeed derives epoch e's batch-shuffle seed from the run seed —
// the single formula shared by every training path (owner, watermark,
// attack), replacing the divergent per-package variants.
func ShuffleSeed(seed uint64, epoch int) uint64 {
	return seed + uint64(epoch)*0x9e37 + 1
}

// Trainer owns the epoch/step loop. Build with New, optionally Restore a
// checkpoint, then Run.
type Trainer struct {
	net    *nn.Network
	cfg    Config
	opt    nn.Optimizer
	params []*nn.Param
	loss   nn.SoftmaxCrossEntropy

	// gradBuf is the reused loss-gradient buffer; together with the
	// layers' own scratch it makes the steady-state step allocation-free.
	gradBuf    *tensor.Tensor
	nextEpoch  int
	globalStep int
	res        Result

	// eng is the data-parallel gradient engine, nil for the sequential
	// loop (Replicas == 0 and GradShards == 0).
	eng *replicaEngine
}

// New builds a Trainer for net. It validates the optimizer name and the
// replica/shard configuration; the schedule defaults to a constant LR.
func New(net *nn.Network, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	opt, err := newOptimizer(cfg)
	if err != nil {
		return nil, err
	}
	t := &Trainer{net: net, cfg: cfg, opt: opt, params: net.Params()}
	if cfg.Replicas < 0 || cfg.GradShards < 0 {
		return nil, fmt.Errorf("train: negative replicas (%d) or grad shards (%d)", cfg.Replicas, cfg.GradShards)
	}
	if cfg.Replicas > 0 {
		s := cfg.GradShards
		if s&(s-1) != 0 {
			return nil, fmt.Errorf("train: grad shards %d is not a power of two", s)
		}
		if cfg.Replicas > s || s%cfg.Replicas != 0 {
			return nil, fmt.Errorf("train: %d replicas must divide %d grad shards (set GradShards explicitly for K > 8)", cfg.Replicas, s)
		}
		t.eng = newReplicaEngine(net, cfg)
	}
	return t, nil
}

// shardCount reports the effective micro-shard count: cfg.GradShards for
// data-parallel runs, 0 for the sequential loop. It is what checkpoints
// record and validate, since it alone fixes the run's numerics.
func (t *Trainer) shardCount() int {
	if t.eng == nil {
		return 0
	}
	return t.cfg.GradShards
}

func newOptimizer(cfg Config) (nn.Optimizer, error) {
	switch cfg.Optimizer {
	case "", "sgd":
		return nn.NewMomentumSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay), nil
	case "adam":
		a := nn.NewAdam(cfg.LR)
		a.WeightDecay = cfg.WeightDecay
		return a, nil
	default:
		return nil, fmt.Errorf("train: unknown optimizer %q (want sgd or adam)", cfg.Optimizer)
	}
}

// Snapshot captures the resumable state at the current epoch boundary.
// It deep-copies optimizer slots and trajectory, so the snapshot is
// immune to further training.
func (t *Trainer) Snapshot() State {
	return State{
		NextEpoch: t.nextEpoch,
		Seed:      t.cfg.Seed,
		Schedule:  t.cfg.Schedule.String(),
		Optimizer: t.opt.ExportState(t.params),
		EpochLoss: append([]float64(nil), t.res.EpochLoss...),
		TestAcc:   append([]float64(nil), t.res.TestAcc...),
		Shards:    t.shardCount(),
	}
}

// Restore positions the Trainer at a checkpointed epoch boundary: the
// optimizer slots, trajectory, and epoch cursor are loaded so the next
// Run continues the original sequence bitwise. It must be called before
// Run, on a network already holding the checkpointed weights and lock
// bits (modelio.LoadCheckpoint does both).
func (t *Trainer) Restore(st State) error {
	if st.NextEpoch < 0 || st.NextEpoch > t.cfg.Epochs {
		return fmt.Errorf("train: checkpoint at epoch %d outside the %d-epoch run", st.NextEpoch, t.cfg.Epochs)
	}
	if st.Seed != t.cfg.Seed {
		return fmt.Errorf("train: checkpoint shuffle seed %d does not match configured %d", st.Seed, t.cfg.Seed)
	}
	if st.Schedule != "" && st.Schedule != t.cfg.Schedule.String() {
		return fmt.Errorf("train: checkpoint schedule %q does not match configured %q", st.Schedule, t.cfg.Schedule)
	}
	if st.Shards != t.shardCount() {
		return fmt.Errorf("train: checkpoint used %d grad shards but trainer is configured for %d (the replica count may change freely, the shard count may not)", st.Shards, t.shardCount())
	}
	if err := t.opt.ImportState(t.params, st.Optimizer); err != nil {
		return err
	}
	t.nextEpoch = st.NextEpoch
	t.res = Result{
		EpochLoss: append([]float64(nil), st.EpochLoss...),
		TestAcc:   append([]float64(nil), st.TestAcc...),
	}
	return nil
}

// Run trains on (x, y) with softmax cross-entropy until cfg.Epochs (or an
// OnEpoch hook stops it). eval, when non-nil, is called after every epoch
// and its result recorded in the TestAcc trajectory — callers pass a
// closure over their model's Accuracy. Run continues from the restored
// epoch after Restore.
func (t *Trainer) Run(x *tensor.Tensor, y []int, eval func() float64) (Result, error) {
	n := 0
	if x != nil {
		n = x.Shape[0]
	}
	if x == nil || n != len(y) {
		return t.res, &DataSizeError{Samples: n, Labels: len(y)}
	}
	if t.eng != nil {
		defer t.eng.stop()
	}
	for epoch := t.nextEpoch; epoch < t.cfg.Epochs; epoch++ {
		lr := t.cfg.Schedule.LR(epoch)
		t.opt.SetLR(lr)
		batches := dataset.Batches(x, y, t.cfg.BatchSize, ShuffleSeed(t.cfg.Seed, epoch))
		start := time.Now()
		lossSum := 0.0
		for si, b := range batches {
			lossSum += t.step(b, epoch, si, lr) * float64(len(b.Y))
		}
		dur := time.Since(start)
		t.nextEpoch = epoch + 1
		epochLoss := lossSum / float64(len(y))
		t.res.EpochLoss = append(t.res.EpochLoss, epochLoss)

		info := EpochInfo{
			Epoch:    epoch,
			Loss:     epochLoss,
			Steps:    len(batches),
			Samples:  len(y),
			Duration: dur,
		}
		if secs := dur.Seconds(); secs > 0 {
			info.SamplesPerSec = float64(len(y)) / secs
		}
		if eval != nil {
			acc := eval()
			t.res.TestAcc = append(t.res.TestAcc, acc)
			info.TestAcc, info.HasEval = acc, true
			if h := t.cfg.Hooks.OnEval; h != nil {
				h(epoch, acc)
			}
			if logf := t.cfg.Hooks.Logf; logf != nil {
				logf("epoch %2d  loss %.4f  test acc %.4f", epoch+1, epochLoss, acc)
			}
		} else if logf := t.cfg.Hooks.Logf; logf != nil {
			logf("epoch %2d  loss %.4f", epoch+1, epochLoss)
		}
		if h := t.cfg.Hooks.OnEpoch; h != nil {
			info.Trajectory = t.res
			info.Snapshot = t.Snapshot
			if !h(info) {
				t.res.Stopped = true
				break
			}
		}
	}
	return t.res, nil
}

// step runs one forward/loss/backward/clip/update cycle and returns the
// mean batch loss (including any GradAugments contribution). It is the
// only place in the codebase that advances model weights.
func (t *Trainer) step(b dataset.Batch, epoch, stepIdx int, lr float64) float64 {
	timed := t.cfg.Hooks.OnStep != nil
	var begin time.Time
	if timed {
		begin = time.Now()
	}
	var l float64
	if t.eng != nil {
		l = t.eng.gradStep(b)
	} else {
		out := t.net.Forward(b.X, true)
		var g *tensor.Tensor
		l, g = t.loss.LossInto(t.gradBuf, out, b.Y)
		t.gradBuf = g
		t.net.Backward(g)
	}
	for _, h := range t.cfg.GradAugments {
		l += h()
	}
	if t.cfg.ClipNorm > 0 {
		nn.ClipGradNorm(t.params, t.cfg.ClipNorm)
	}
	t.opt.Step(t.params)
	t.globalStep++
	if timed {
		t.cfg.Hooks.OnStep(StepInfo{
			Epoch:      epoch,
			Step:       stepIdx,
			GlobalStep: t.globalStep - 1,
			Loss:       l,
			Batch:      len(b.Y),
			LR:         lr,
			Duration:   time.Since(begin),
		})
	}
	return l
}
