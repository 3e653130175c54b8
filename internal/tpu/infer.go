package tpu

import (
	"fmt"
	"math"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// Accelerator is the full trusted inference device: the key-dependent MMU,
// the sealed key store and the (private) neuron→column schedule. It runs a
// published HPNN model end-to-end on the int8 datapath; the model's own
// Lock layers are ignored — locking happens in hardware, driven by the
// on-chip key, exactly as an authorized end-user would experience it.
//
// Models are compiled before execution (see plan.go): batch-norm folds
// into the convolutions and residual blocks lower onto the vector unit, so
// both the sequential CNNs of Table I and the ResNet-18 of Fig. 3 run on
// the device. A device either compiles a model itself on first use, or
// binds a Program compiled once for several devices (Bind).
//
// An Accelerator is not safe for concurrent use: its state for a program
// holds the activation scratch, which assumes one inference at a time —
// matching the single command queue of the modelled hardware. Devices
// sharing one Program run concurrently.
type Accelerator struct {
	mmu    *MMU
	sched  *schedule.Schedule
	scheme lockscheme.Scheme
	low    lockscheme.Lowering
	bits   int

	// states maps each model this device runs to its program and the
	// device's state for it.
	states map[*core.Model]*state
	sealed bool
	// onMMU routes the current run's MACs through the simulated MMU
	// instead of the GEMM (batch.go); each entry point sets it. sizing
	// makes the current run only size the state's buffers (Bind).
	onMMU  bool
	sizing bool
	// sampleShape and sampleView are PredictSample's reused [1, ...] header.
	sampleShape []int
	sampleView  tensor.Tensor
}

// NewAccelerator builds a trusted device simulator lowering the default
// (paper) HPNN XOR scheme. dev may be nil to model a commodity accelerator
// without the HPNN key (an attacker's hardware).
func NewAccelerator(cfg Config, dev *keys.Device, sched *schedule.Schedule) (*Accelerator, error) {
	return NewAcceleratorFor(lockscheme.Default(), cfg, dev, sched)
}

// NewAcceleratorFor builds a trusted device simulator for an explicit lock
// scheme. The scheme's Lowering decides how the lock folds into compiled
// plans: the in-datapath XOR scheme drives the MMU's key-conditioned
// accumulator columns, while weight-space schemes unlock the model into a
// device-private clone at compile time and run the plain datapath.
func NewAcceleratorFor(scheme lockscheme.Scheme, cfg Config, dev *keys.Device, sched *schedule.Schedule) (*Accelerator, error) {
	if scheme == nil {
		return nil, fmt.Errorf("tpu: accelerator requires a lock scheme")
	}
	mmu, err := NewMMU(cfg, dev)
	if err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, fmt.Errorf("tpu: accelerator requires a schedule")
	}
	bits, err := datapathBits(cfg)
	if err != nil {
		return nil, err
	}
	return &Accelerator{
		mmu: mmu, sched: sched, bits: bits,
		scheme: scheme, low: scheme.Lowering(dev, sched),
		states: make(map[*core.Model]*state),
	}, nil
}

// datapathBits resolves and checks cfg's datapath width.
func datapathBits(cfg Config) (int, error) {
	bits := cfg.Bits
	if bits == 0 {
		bits = 8
	}
	if bits < 2 || bits > 8 {
		return 0, fmt.Errorf("tpu: datapath width %d bits out of supported range [2,8]", bits)
	}
	return bits, nil
}

// Scheme returns the lock scheme this device lowers.
func (a *Accelerator) Scheme() lockscheme.Scheme { return a.scheme }

// Stats returns the hardware activity counters accumulated so far.
func (a *Accelerator) Stats() Stats { return a.mmu.Stats() }

// ResetStats clears the activity counters.
func (a *Accelerator) ResetStats() { a.mmu.ResetStats() }

// stateFor returns the device's state for m, compiling a program the
// device owns on first use.
func (a *Accelerator) stateFor(m *core.Model) (*state, error) {
	if s, ok := a.states[m]; ok {
		return s, nil
	}
	//hpnn:allow(noalloc) compile-once lowering; weight-space schemes clone/unlock here, before serving starts
	p, err := compileProgram(a.scheme, a.low, a.bits, a.mmu.dev, a.sched, m)
	if err != nil {
		return nil, err
	}
	return a.newState(p, true), nil //hpnn:allow(noalloc) compile-once state; serving shards Bind instead
}

func (a *Accelerator) newState(p *Program, own bool) *state {
	s := &state{prog: p, own: own, sealed: a.sealed, ops: make([]opState, p.slots)}
	a.states[p.model] = s
	return s
}

// Compile eagerly lowers m for execution on this device, so the first
// inference pays no compilation cost. The device owns the program it
// compiles: Release wipes it.
func (a *Accelerator) Compile(m *core.Model) error {
	_, err := a.stateFor(m)
	return err
}

// Bind makes the device run p's model on p, without compiling it again,
// and sizes the device's state for batches of up to maxBatch samples
// without running any MAC: each op's buffers are allocated from the shapes
// the program knows, so Seal can follow at once. p must have been compiled
// for this device's scheme, datapath width, key device and schedule. The
// device does not own p: Release wipes only the device's state, and p is
// released by whoever compiled it, once no device runs it.
func (a *Accelerator) Bind(p *Program, maxBatch int) error {
	if p.scheme != a.scheme.Name() || p.bits != a.bits || p.dev != a.mmu.dev || p.sched != a.sched {
		return fmt.Errorf("tpu: program compiled for another scheme, datapath, device or schedule")
	}
	if _, dup := a.states[p.model]; dup {
		return fmt.Errorf("tpu: device already runs this model")
	}
	if maxBatch < 1 {
		return fmt.Errorf("tpu: bind batch %d < 1", maxBatch)
	}
	s := a.newState(p, false)
	cfg := p.model.Config
	// A shape-only header: the sizing pass reads shapes, never data.
	in := tensor.Tensor{Shape: []int{maxBatch, cfg.InC, cfg.InH, cfg.InW}}
	a.onMMU = a.mmu.cfg.GateLevel || a.mmu.cfg.Systolic
	a.sizing = true
	_, err := runOps(a, s, p.ops, &in)
	a.sizing = false
	if err != nil {
		s.wipe()
		delete(a.states, p.model)
	}
	return err
}

// Seal freezes every buffer of the device's state: once each op's buffers
// have been sized (by Bind, or by a first run at the largest batch on the
// same backend), sealing turns any further growth — an output block, the
// input scratch, a sign mask or the MAC step's integer scratch — into a
// panic, enforcing the steady-state zero-allocation contract. Serving
// shards seal after Bind; they must then keep to the bound batch size and
// the bound backend (a GEMM-bound device has no MMU scratch, so its
// PredictSample panics).
func (a *Accelerator) Seal() {
	a.sealed = true
	//hpnn:allow(determinism) order-independent
	for _, s := range a.states {
		s.sealed = true
	}
}

// WorkspaceSealed reports whether Seal has frozen the device's state.
func (a *Accelerator) WorkspaceSealed() bool { return a.sealed }

// Release drops every program binding and its state, returning the
// device's memory to the garbage collector and lifting any seal. It is the
// eviction hook of the multi-tenant serving registry: a released device is
// empty but fully reusable — the next Compile/Predict lowers from scratch,
// exactly like a fresh accelerator. Not safe to call concurrently with an
// inference on the same device.
//
// Before dropping anything, Release zeroes every buffer of the device's
// state for every program — each op's output (the vector unit's included),
// sign mask and integer scratch, and the input scratch — so an evicted
// tenant leaves neither key bits nor activations behind for the next
// occupant. A program the device compiled itself is released too
// (Program.Release: weight codes, the BN fold, a weight-space scheme's
// unlocked clone); a bound program is left to its owner. The published
// model is never written.
func (a *Accelerator) Release() {
	//hpnn:allow(determinism) order-independent full clear (the compiler's map-clear idiom)
	for m, s := range a.states {
		s.wipe()
		if s.own {
			s.prog.Release()
		}
		delete(a.states, m)
	}
	a.sealed = false
}

// WorkspaceBytes reports the bytes the device holds: its state for every
// program (output buffers, input scratch, sign masks and MAC scratch) plus
// the programs it compiled itself. A bound program is counted by its
// owner, once however many devices run it.
func (a *Accelerator) WorkspaceBytes() int {
	total := 0
	//hpnn:allow(determinism) order-independent sum
	for _, s := range a.states {
		total += s.bytes()
		if s.own {
			total += s.prog.Bytes()
		}
	}
	return total
}

// PredictSample runs a single sample x ([C, H, W] — no batch dimension)
// through the model as a batch of one and returns its argmax class. Every
// MAC runs on the simulated MMU, so this is the golden reference the GEMM
// tier is pinned to (batch.go). It performs zero heap allocations in steady
// state.
//
//hpnn:noalloc
func (a *Accelerator) PredictSample(m *core.Model, x *tensor.Tensor) (int, error) {
	out, err := a.runSample(m, x)
	if err != nil {
		return -1, err
	}
	return tensor.Argmax(out.Data), nil
}

// runSample is PredictSample's datapath, returning the final activations.
//
//hpnn:noalloc
func (a *Accelerator) runSample(m *core.Model, x *tensor.Tensor) (*tensor.Tensor, error) {
	s, err := a.stateFor(m)
	if err != nil {
		return nil, err
	}
	a.sampleShape = append(a.sampleShape[:0], 1)
	a.sampleShape = append(a.sampleShape, x.Shape...) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	a.onMMU = true
	return runOps(a, s, s.prog.ops, tensor.ViewInto(&a.sampleView, x.Data, a.sampleShape...))
}

// PredictBatchInto runs the micro-batch x ([N, C, H, W]) through the model,
// writing the argmax class of sample i into preds[i]. It is the serving
// layer's batch entry point: zero heap allocations in steady state, and
// bit-for-bit the predictions (and hardware counters) PredictSample would
// produce. The MACs run on the GEMM, or on the MMU in the diagnostic device
// modes (GateLevel, Systolic), which must observe every gate evaluation.
//
//hpnn:noalloc
func (a *Accelerator) PredictBatchInto(preds []int, m *core.Model, x *tensor.Tensor) error {
	s, err := a.stateFor(m)
	if err != nil {
		return err
	}
	if len(x.Shape) < 2 {
		//hpnn:allow(noalloc) cold error path
		return fmt.Errorf("tpu: batched input %v has no batch dimension", x.Shape)
	}
	n := x.Shape[0]
	if n == 0 {
		return nil
	}
	if len(preds) < n {
		//hpnn:allow(noalloc) cold error path
		return fmt.Errorf("tpu: prediction buffer %d shorter than batch %d", len(preds), n)
	}
	a.onMMU = a.mmu.cfg.GateLevel || a.mmu.cfg.Systolic
	out, err := runOps(a, s, s.prog.ops, x)
	if err != nil {
		return err
	}
	cls := out.Len() / n
	for i := 0; i < n; i++ {
		preds[i] = tensor.Argmax(out.Data[i*cls : (i+1)*cls])
	}
	return nil
}

// predictChunk is the batch Predict hands PredictBatchInto at a time —
// serving's default MaxBatch — so a whole test set never sizes the
// device's state.
const predictChunk = 8

// Predict runs x ([N, C, H, W]) through the model, predictChunk samples
// at a time through PredictBatchInto, and returns the argmax class per
// sample.
func (a *Accelerator) Predict(m *core.Model, x *tensor.Tensor) ([]int, error) {
	n := x.Shape[0]
	feat := x.Len() / maxInt(n, 1)
	preds := make([]int, n)
	shape := append([]int{0}, x.Shape[1:]...)
	var chunk tensor.Tensor
	for lo := 0; lo < n; lo += predictChunk {
		shape[0] = minI(predictChunk, n-lo)
		tensor.ViewInto(&chunk, x.Data[lo*feat:(lo+shape[0])*feat], shape...)
		if err := a.PredictBatchInto(preds[lo:], m, &chunk); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// Accuracy evaluates hardware-inference accuracy on (x, y).
func (a *Accelerator) Accuracy(m *core.Model, x *tensor.Tensor, y []int) (float64, error) {
	preds, err := a.Predict(m, x)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(maxInt(len(y), 1)), nil
}

func sqrtf(x float64) float64 { return math.Sqrt(x) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
