// Package hpnn is the public API of the HPNN reproduction — the
// obfuscation framework of "Hardware-Assisted Intellectual Property
// Protection of Deep Learning Models" (Chakraborty, Mondal, Srivastava,
// DAC 2020).
//
// The package re-exports the user-facing workflow from the internal
// packages, organized around the paper's three roles:
//
//   - The model owner generates a secret 256-bit HPNN key, trains a DNN
//     with the key-dependent backpropagation algorithm (TrainLocked) and
//     publishes the obfuscated weights (SaveModel / modelio zoo).
//
//   - An authorized end-user holds a trusted hardware device with the key
//     embedded on-chip (NewTrustedDevice) and runs inference through the
//     TPU-like accelerator simulator (NewAccelerator), which restores the
//     intended functionality.
//
//   - An attacker can download the published model and run it on the
//     baseline architecture (DisengageLocks) or mount fine-tuning attacks
//     (FineTune) — both collapse or fall short of the owner's accuracy.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure.
package hpnn

import (
	"fmt"
	"io"
	"strings"

	"hpnn/internal/attack"
	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/modelio"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/serve"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
	"hpnn/internal/train"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Model is a (possibly key-locked) deep-learning model.
	Model = core.Model
	// Config describes a model architecture to build.
	Config = core.Config
	// Arch names one of the paper's network architectures.
	Arch = core.Arch
	// TrainConfig controls a training or fine-tuning run.
	TrainConfig = core.TrainConfig
	// TrainResult records a run's per-epoch trajectory.
	TrainResult = core.TrainResult
	// TrainHooks is the trainer's observer bus (per-step timing,
	// samples/sec, evaluation callbacks, checkpoint snapshots).
	TrainHooks = train.Hooks
	// TrainStepInfo describes one completed optimizer step.
	TrainStepInfo = train.StepInfo
	// TrainEpochInfo describes one completed epoch, including throughput
	// and a Snapshot closure for checkpointing.
	TrainEpochInfo = train.EpochInfo
	// TrainerState is the resumable trainer state captured by a snapshot
	// and serialized inside checkpoint records.
	TrainerState = train.State
	// LRSchedule maps an epoch index to a learning rate.
	LRSchedule = train.LRSchedule

	// Key is a 256-bit HPNN secret key.
	Key = keys.Key
	// Device is a sealed trusted-hardware key container.
	Device = keys.Device
	// Schedule is the private neuron→accumulator-column mapping.
	Schedule = schedule.Schedule

	// Dataset is a generated benchmark with train/test splits.
	Dataset = dataset.Dataset
	// DatasetConfig selects and sizes a benchmark.
	DatasetConfig = dataset.Config

	// Tensor is the dense float64 array type used throughout.
	Tensor = tensor.Tensor

	// Accelerator is the simulated TPU-like trusted inference device.
	Accelerator = tpu.Accelerator
	// AcceleratorConfig sizes the simulated matrix-multiply unit.
	AcceleratorConfig = tpu.Config
	// GateReport is the hardware-overhead accounting of §III-D3.
	GateReport = tpu.GateReport

	// FineTuneConfig describes a model fine-tuning attack.
	FineTuneConfig = attack.FineTuneConfig
	// AttackResult is the outcome of a fine-tuning attack.
	AttackResult = attack.Result

	// InferenceServer is the concurrent batched serving layer over the
	// locked TPU path: per-shard accelerators that take batches from one
	// bounded request queue the moment they are idle.
	InferenceServer = serve.Server
	// ServeConfig tunes the batching service (shards, batch size, queue
	// depth; the shards lower the model's own lock scheme); the zero value
	// selects defaults.
	ServeConfig = serve.Config
	// ServeStats is a snapshot of serving counters and latency percentiles.
	ServeStats = serve.Stats

	// ModelRegistry is the multi-tenant serving layer: it routes requests
	// by model ID to per-model tenants (lazily compiled+sealed serving
	// stacks), holds residents LRU under a workspace-memory budget, and
	// hot-swaps new versions with zero downtime via Deploy.
	ModelRegistry = serve.Registry
	// RegistryConfig tunes the multi-tenant registry: the per-tenant
	// serving config, the workspace-memory budget, and default routing.
	RegistryConfig = serve.RegistryConfig
	// ServeTenantInfo reports one tenant's identity, residency and
	// cumulative serving/hardware counters.
	ServeTenantInfo = serve.TenantInfo
	// ServeRegistryCounters snapshots registry-level activity: compiles,
	// evictions, hot-swaps and swap-race reroutes.
	ServeRegistryCounters = serve.RegistryCounters

	// KeyRing is the serving layer's key-isolation boundary: one trusted
	// device per served model, never shared across tenants.
	KeyRing = keys.Ring

	// ZooClient talks to an hpnn-zoo model-sharing server: publish, list,
	// fetch, and ETag-conditional blob polls for hot-swap watch loops.
	ZooClient = modelio.Client
	// ZooRecord describes one published zoo entry (name, lock scheme,
	// version).
	ZooRecord = modelio.Record
)

// Architectures of the paper's evaluation.
const (
	CNN1     = core.CNN1
	CNN2     = core.CNN2
	CNN3     = core.CNN3
	ResNet18 = core.ResNet18
	MLP      = core.MLP
)

// Attacker initialization modes (§IV-C).
const (
	InitStolen = attack.InitStolen
	InitRandom = attack.InitRandom
)

// KeyBits is the HPNN key length (256, one bit per accumulator column).
const KeyBits = keys.KeyBits

// NewModel builds a model with freshly initialized weights and engaged
// (all-zero) locks.
func NewModel(cfg Config) (*Model, error) { return core.NewModel(cfg) }

// NewTensor allocates a zero-filled tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// GenerateKey draws a random HPNN key from a deterministic seed.
func GenerateKey(seed uint64) Key { return keys.Generate(rng.New(seed)) }

// KeyFromHex parses a 64-character hex key.
func KeyFromHex(s string) (Key, error) { return keys.FromHex(s) }

// NewSchedule creates the owner's private hardware scheduling algorithm
// for 256-column hardware.
func NewSchedule(seed uint64) *Schedule { return schedule.New(keys.KeyBits, seed) }

// NewTrustedDevice provisions trusted hardware with the key sealed on-chip.
func NewTrustedDevice(serial string, key Key) *Device { return keys.NewDevice(serial, key) }

// Authority is the owner's licensing service: it provisions trusted
// devices by serial and supports revocation (revoked devices answer every
// key-bit query with zero, degrading to the useless baseline function).
type Authority = keys.Authority

// NewAuthority creates a licensing authority holding the HPNN key.
func NewAuthority(key Key) *Authority { return keys.NewAuthority(key) }

// TrainLocked runs the owner's key-dependent training: the key is expanded
// through the schedule onto every locked neuron, then the network is
// trained with the key-dependent backpropagation rule.
func TrainLocked(m *Model, key Key, sched *Schedule, trainX *Tensor, trainY []int, testX *Tensor, testY []int, cfg TrainConfig) TrainResult {
	m.ApplyRawKey(key, sched)
	return core.Train(m, trainX, trainY, testX, testY, cfg)
}

// Train runs conventional training with the model's current lock state
// (all-zero engaged locks are the unlocked baseline).
func Train(m *Model, trainX *Tensor, trainY []int, testX *Tensor, testY []int, cfg TrainConfig) TrainResult {
	return core.Train(m, trainX, trainY, testX, testY, cfg)
}

// TrainChecked is Train returning errors instead of panicking: typed
// train.DataSizeError for sample/label mismatches, configuration errors
// for unknown optimizer or schedule names, and restore errors when
// cfg.Resume does not match the run.
func TrainChecked(m *Model, trainX *Tensor, trainY []int, testX *Tensor, testY []int, cfg TrainConfig) (TrainResult, error) {
	return core.TrainChecked(m, trainX, trainY, testX, testY, cfg)
}

// GenerateDataset builds one of the synthetic benchmarks ("fashion",
// "cifar" or "svhn").
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// FineTune mounts a model fine-tuning attack against a victim model.
func FineTune(victim *Model, ds *Dataset, cfg FineTuneConfig) (AttackResult, *Model, error) {
	return attack.FineTune(victim, ds, cfg)
}

// NewAccelerator builds the simulated TPU-like device for the paper's
// default HPNN XOR scheme. dev may be nil to model commodity hardware
// without the HPNN key.
func NewAccelerator(cfg AcceleratorConfig, dev *Device, sched *Schedule) (*Accelerator, error) {
	return tpu.NewAccelerator(cfg, dev, sched)
}

// LockScheme is one pluggable locking backend: how a model is entangled
// with a hardware key at training time, transformed for publication, and
// lowered onto the accelerator (package lockscheme).
type LockScheme = lockscheme.Scheme

// LockSchemeNames lists the registered lock-scheme identifiers, sorted.
func LockSchemeNames() []string { return lockscheme.Names() }

// LockSchemeByName resolves a scheme identifier; the empty string selects
// the paper's default HPNN XOR scheme.
func LockSchemeByName(name string) (LockScheme, error) { return lockscheme.Get(name) }

// DefaultLockScheme is the paper's per-neuron XOR scheme.
func DefaultLockScheme() LockScheme { return lockscheme.Default() }

// CanonicalLockScheme normalizes a stored scheme identifier: the empty
// string (pre-scheme artifacts) resolves to the default scheme's name.
func CanonicalLockScheme(name string) string { return lockscheme.Canonical(name) }

// DescribeLockSchemes renders the registry as "name  description" lines for
// CLI -scheme list output.
func DescribeLockSchemes() string {
	var b strings.Builder
	for _, n := range lockscheme.Names() {
		s, err := lockscheme.Get(n)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "%-12s %s\n", n, s.Describe())
	}
	return b.String()
}

// NewAcceleratorFor builds the simulated device for an explicit lock
// scheme: the in-datapath XOR scheme drives the key-conditioned
// accumulators, weight-space schemes unlock into a device-private clone at
// plan-compile time.
func NewAcceleratorFor(scheme LockScheme, cfg AcceleratorConfig, dev *Device, sched *Schedule) (*Accelerator, error) {
	return tpu.NewAcceleratorFor(scheme, cfg, dev, sched)
}

// DefaultAcceleratorConfig is the paper's 256×256 MMU geometry.
func DefaultAcceleratorConfig() AcceleratorConfig { return tpu.DefaultConfig() }

// HardwareOverhead reports the gate/area/cycle cost of the HPNN hardware
// modification for an MMU geometry (§III-D3).
func HardwareOverhead(cfg AcceleratorConfig) GateReport { return tpu.Gates(cfg) }

// Serving-layer errors: ErrServerOverloaded when the bounded request queue
// sheds load, ErrServerClosed after shutdown has begun, ErrServerRetry when
// a request kept racing tenant hot-swaps (back off and resubmit).
// ErrZooNotModified is the conditional-fetch "nothing changed" signal.
var (
	ErrServerOverloaded = serve.ErrOverloaded
	ErrServerClosed     = serve.ErrClosed
	ErrServerRetry      = serve.ErrRetry
	ErrZooNotModified   = modelio.ErrNotModified
)

// NewInferenceServer starts a batched serving instance for one model: the
// model compiles once into a program every shard shares, and each shard's
// accelerator — bound to the same sealed key device and schedule — holds
// its own state, sized and sealed up front so requests allocate nothing. dev may be nil to serve on commodity hardware (the
// paper's attacker scenario). Stop with Close, which drains accepted
// requests and returns final statistics.
func NewInferenceServer(m *Model, acfg AcceleratorConfig, dev *Device, sched *Schedule, cfg ServeConfig) (*InferenceServer, error) {
	return serve.New(m, acfg, dev, sched, cfg)
}

// NewModelRegistry builds an empty multi-tenant serving registry: add
// models with Register (serialized blob + per-model key device + private
// schedule), serve with Predict/PredictBatch routing by model ID, roll new
// versions with Deploy (zero-downtime hot-swap), stop with Close. Tenants
// compile lazily and are evicted least-recently-used when resident
// workspaces exceed the configured memory budget.
func NewModelRegistry(acfg AcceleratorConfig, cfg RegistryConfig) *ModelRegistry {
	return serve.NewRegistry(acfg, cfg)
}

// NewKeyRing returns an empty per-model device ring — the structure that
// enforces one trusted device per served model.
func NewKeyRing() *KeyRing { return keys.NewRing() }

// NewZooClient returns a client for an hpnn-zoo server at base.
func NewZooClient(base string) *ZooClient { return modelio.NewClient(base) }

// Wire codec of the hpnn-serve TCP protocol (little-endian length-prefixed
// frames), re-exported so clients can be written against the public API.
// EncodeServeRequest writes a v1 frame (routes to the default model).
func EncodeServeRequest(w io.Writer, x *Tensor) error { return serve.EncodeRequest(w, x) }

// EncodeServeRequestTo writes a v2 frame addressed to the named model; an
// empty model routes to the server's default, like a v1 frame.
func EncodeServeRequestTo(w io.Writer, model string, x *Tensor) error {
	return serve.EncodeRequestTo(w, model, x)
}

// DecodeServeRequestModel reads one request frame of either protocol
// version and returns the sample plus the model ID the request routes to
// ("" means the default model); it validates shape, size and value
// finiteness and never panics on malformed input.
func DecodeServeRequestModel(r io.Reader) (*Tensor, string, error) {
	return serve.DecodeRequestModel(r)
}

// EncodeServeResponse writes one response frame: a class or an error.
func EncodeServeResponse(w io.Writer, class int, err error) error {
	return serve.EncodeResponse(w, class, err)
}

// DecodeServeResponse reads one response frame, returning the predicted
// class or the server-reported error.
func DecodeServeResponse(r io.Reader) (int, error) { return serve.DecodeResponse(r) }

// SaveModel serializes a model (weights only — never key material) to w.
func SaveModel(w io.Writer, m *Model) error { return modelio.Save(w, m) }

// LoadModel deserializes a model published with SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return modelio.Load(r) }

// SaveModelFile and LoadModelFile are file-path conveniences.
func SaveModelFile(path string, m *Model) error { return modelio.SaveFile(path, m) }

// LoadModelFile reads a model from a file.
func LoadModelFile(path string) (*Model, error) { return modelio.LoadFile(path) }

// SaveCheckpoint writes a resumable training checkpoint: the model
// (including lock bits — checkpoints are the owner's PRIVATE artifact,
// unlike SaveModel's published format) plus the trainer state from a
// TrainEpochInfo.Snapshot. Restore by passing the loaded state as
// TrainConfig.Resume.
func SaveCheckpoint(w io.Writer, m *Model, st TrainerState) error {
	return modelio.SaveCheckpoint(w, m, st)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(r io.Reader) (*Model, TrainerState, error) { return modelio.LoadCheckpoint(r) }

// SaveCheckpointFile writes a checkpoint atomically (temp file + rename),
// so a crash mid-write never clobbers the previous good checkpoint.
func SaveCheckpointFile(path string, m *Model, st TrainerState) error {
	return modelio.SaveCheckpointFile(path, m, st)
}

// LoadCheckpointFile reads a checkpoint from a file.
func LoadCheckpointFile(path string) (*Model, TrainerState, error) {
	return modelio.LoadCheckpointFile(path)
}
