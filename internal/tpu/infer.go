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
// the device.
//
// An Accelerator is not safe for concurrent use: compiled ops draw their
// activation scratch from the device's shared Workspace, which assumes one
// inference at a time — matching the single command queue of the modelled
// hardware.
type Accelerator struct {
	mmu    *MMU
	sched  *schedule.Schedule
	scheme lockscheme.Scheme
	low    lockscheme.Lowering
	bits   int

	plans map[*core.Model]compiled
	// ws holds every compiled op's output buffer and widened weight codes,
	// keyed per op at compile time, plus the dead-after-return input
	// scratch under accelerator-wide keys.
	ws *tensor.Workspace
	// onMMU routes the current run's MACs through the simulated MMU
	// instead of the GEMM (batch.go); each entry point sets it.
	onMMU bool
	// sampleShape and sampleView are PredictSample's reused [1, ...] header.
	sampleShape []int
	sampleView  tensor.Tensor
}

// compiled is one lowered model: its ops, and the device-private clone a
// weight-space scheme unlocked for them (nil when the ops run on the
// published model's own tensors). Release zeroes the clone.
type compiled struct {
	ops   []planOp
	clone *core.Model
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
	bits := cfg.Bits
	if bits == 0 {
		bits = 8
	}
	if bits < 2 || bits > 8 {
		return nil, fmt.Errorf("tpu: datapath width %d bits out of supported range [2,8]", bits)
	}
	return &Accelerator{
		mmu: mmu, sched: sched, bits: bits,
		scheme: scheme, low: scheme.Lowering(dev, sched),
		plans: make(map[*core.Model]compiled),
		ws:    tensor.NewWorkspace(),
	}, nil
}

// Scheme returns the lock scheme this device lowers.
func (a *Accelerator) Scheme() lockscheme.Scheme { return a.scheme }

// Stats returns the hardware activity counters accumulated so far.
func (a *Accelerator) Stats() Stats { return a.mmu.Stats() }

// ResetStats clears the activity counters.
func (a *Accelerator) ResetStats() { a.mmu.ResetStats() }

// quantize converts to the accelerator's datapath width.
func (a *Accelerator) quantize(t *tensor.Tensor) *QTensor { return QuantizeTo(t, a.bits) }

// planFor returns the compiled plan for m, lowering it on first use. The
// scheme's compile-time hooks run here: the model's scheme stamp must match
// the accelerator's, and weight-space schemes get their device-private
// unlocked clone before lowering (the clone is kept beside the plan for
// Release; the published model m remains the map key and is never mutated).
func (a *Accelerator) planFor(m *core.Model) ([]planOp, error) {
	c, ok := a.plans[m]
	if !ok {
		if got := lockscheme.Canonical(m.Scheme); got != a.scheme.Name() {
			//hpnn:allow(noalloc) cold error path: scheme mismatch rejected at first compile
			return nil, fmt.Errorf("tpu: model published under scheme %q cannot run on a %q accelerator", got, a.scheme.Name())
		}
		//hpnn:allow(noalloc) compile-once lowering; weight-space schemes clone/unlock here, before serving starts
		clone, err := a.low.UnlockModel(m)
		if err != nil {
			return nil, err
		}
		exec := m
		if clone != nil {
			exec = clone
		}
		//hpnn:allow(noalloc) compile-once lowering; Compile runs it eagerly before serving starts
		ops, err := compileModel(a, exec)
		if err != nil {
			return nil, err
		}
		c = compiled{ops: ops, clone: clone}
		a.plans[m] = c
	}
	return c.ops, nil
}

// Compile eagerly lowers m for execution on this device, so the first
// inference pays no compilation cost. Compiled ops own all their mutable
// state (activation scratch, quantized weight caches, cloned vector-unit
// layers), which is what lets the serving layer run one accelerator per
// shard over a single shared model with no cross-shard sharing.
func (a *Accelerator) Compile(m *core.Model) error {
	_, err := a.planFor(m)
	return err
}

// Seal freezes the device's activation workspace: after one warmup
// inference has sized every compiled op's buffers, sealing turns any
// further buffer growth into a panic, enforcing the steady-state
// zero-allocation contract. Serving shards seal after warmup; inputs must
// then keep the warmed shape.
func (a *Accelerator) Seal() { a.ws.Seal() }

// WorkspaceSealed reports whether Seal has frozen the workspace.
func (a *Accelerator) WorkspaceSealed() bool { return a.ws.Sealed() }

// Release drops every compiled plan and the workspace, returning the
// device's memory (output buffers, weight codes, cloned vector-unit layers)
// to the garbage collector and lifting any seal. It is the eviction hook of
// the multi-tenant serving registry: a released device is empty but fully
// reusable — the next Compile/Predict lowers from scratch, exactly like a
// fresh accelerator. Not safe to call concurrently with an inference on the
// same device.
//
// Before dropping anything, Release zeroes what the device owns, so an
// evicted tenant leaves neither key bits nor plaintext weights behind for
// the next occupant: every op's sign mask, int8 weight codes and
// accumulator scratch (residual blocks included), the BN-folded weights,
// every parameter of a weight-space scheme's unlocked clone, and every
// workspace buffer (the widened codes and the activations). It never writes
// the published model: without a BN fold the hpnn-xor plan's float weights
// are the published tensors, shared by every shard.
func (a *Accelerator) Release() {
	//hpnn:allow(determinism) order-independent full clear (the compiler's map-clear idiom)
	for m, c := range a.plans {
		wipeOps(c.ops)
		if c.clone != nil {
			for _, p := range c.clone.Net.Params() {
				clear(p.Value.Data)
			}
		}
		delete(a.plans, m)
	}
	a.ws.Reset()
}

// wipeOps zeroes the key- and weight-derived state of compiled ops,
// descending into residual blocks. The vector ops hold nothing derived
// from either.
func wipeOps(ops []planOp) {
	for _, op := range ops {
		switch o := op.(type) {
		case *convOp:
			o.wipe()
		case *denseOp:
			o.wipe()
		case *lockReluOp:
			o.mask.wipe()
		case *residualOp:
			wipeOps(o.body)
			wipeOps(o.skip)
			wipeOps(o.post)
		}
	}
}

// WorkspaceBytes reports the bytes held by the device's workspace: the
// compiled ops' output buffers, the shared input scratch and the GEMM's
// float64 weight codes — the per-shard memory cost of the serving layer.
func (a *Accelerator) WorkspaceBytes() int { return a.ws.Bytes() }

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
	plan, err := a.planFor(m)
	if err != nil {
		return nil, err
	}
	a.sampleShape = append(a.sampleShape[:0], 1)
	a.sampleShape = append(a.sampleShape, x.Shape...) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	a.onMMU = true
	return runOps(a, plan, tensor.ViewInto(&a.sampleView, x.Data, a.sampleShape...))
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
	plan, err := a.planFor(m)
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
	out, err := runOps(a, plan, x)
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
// workspace.
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
