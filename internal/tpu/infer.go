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

	plans map[*core.Model][]planOp
	// ws holds every compiled op's activation buffers, keyed per op at
	// compile time; sampleView is the reused per-sample input header.
	ws         *tensor.Workspace
	sampleView tensor.Tensor
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
		plans: make(map[*core.Model][]planOp),
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
// unlocked clone before lowering (the clone stays alive through the plan's
// weight references; the published model m remains the map key and is never
// mutated).
func (a *Accelerator) planFor(m *core.Model) ([]planOp, error) {
	plan, ok := a.plans[m]
	if !ok {
		if got := lockscheme.Canonical(m.Scheme); got != a.scheme.Name() {
			//hpnn:allow(noalloc) cold error path: scheme mismatch rejected at first compile
			return nil, fmt.Errorf("tpu: model published under scheme %q cannot run on a %q accelerator", got, a.scheme.Name())
		}
		//hpnn:allow(noalloc) compile-once lowering; weight-space schemes clone/unlock here, before serving starts
		exec, err := a.low.UnlockModel(m)
		if err != nil {
			return nil, err
		}
		if exec == nil {
			exec = m
		}
		//hpnn:allow(noalloc) compile-once lowering; Compile runs it eagerly before serving starts
		if plan, err = compileModel(a, exec); err != nil {
			return nil, err
		}
		a.plans[m] = plan
	}
	return plan, nil
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

// Release drops every compiled plan and the activation workspace, returning
// the device's memory (activation arenas, quantized weight caches, cloned
// vector-unit layers) to the garbage collector and lifting any seal. It is
// the eviction hook of the multi-tenant serving registry: a released device
// is empty but fully reusable — the next Compile/Predict lowers from
// scratch, exactly like a fresh accelerator. Not safe to call concurrently
// with an inference on the same device.
// Release also zeroes every key-derived cache the dropped plans hold (the
// lock-bit sign masks of the batched tier), so an evicted tenant leaves no
// key residue behind for the next occupant of the device.
func (a *Accelerator) Release() {
	//hpnn:allow(determinism) order-independent full clear (the compiler's map-clear idiom)
	for m, plan := range a.plans {
		for _, op := range plan {
			wipeOpKeyMaterial(op)
		}
		delete(a.plans, m)
	}
	a.ws.Reset()
}

// wipeOpKeyMaterial zeroes the key-derived state a compiled op caches.
// Only the ops that consult the device's key bits carry a lockMask; the
// purely arithmetic ops (vector, affine, pooling) hold nothing derived
// from the key.
func wipeOpKeyMaterial(op planOp) {
	switch o := op.(type) {
	case *convOp:
		o.mask.wipe()
	case *denseOp:
		o.mask.wipe()
	case *lockReluOp:
		o.mask.wipe()
	}
}

// WorkspaceBytes reports the bytes held by the device's workspace: the
// compiled ops' activation buffers plus the batched tier's float64 weight
// codes — the per-shard memory cost of the serving layer.
func (a *Accelerator) WorkspaceBytes() int { return a.ws.Bytes() }

// PredictSample runs a single sample x ([C, H, W] — no batch dimension)
// through the model and returns its argmax class. It is the per-request
// entry point of the serving layer: unlike Predict it returns no slice and
// performs zero heap allocations in steady state.
//
//hpnn:noalloc
func (a *Accelerator) PredictSample(m *core.Model, x *tensor.Tensor) (int, error) {
	plan, err := a.planFor(m)
	if err != nil {
		return -1, err
	}
	out, err := runOps(a, plan, x)
	if err != nil {
		return -1, err
	}
	return tensor.Argmax(out.Data), nil
}

// Predict runs x ([N, C, H, W]) through the model on the simulated
// hardware and returns the argmax class per sample.
func (a *Accelerator) Predict(m *core.Model, x *tensor.Tensor) ([]int, error) {
	plan, err := a.planFor(m)
	if err != nil {
		return nil, err
	}
	n := x.Shape[0]
	feat := x.Len() / maxInt(n, 1)
	preds := make([]int, n)
	for i := 0; i < n; i++ {
		sample := tensor.ViewInto(&a.sampleView, x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)
		out, err := runOps(a, plan, sample)
		if err != nil {
			return nil, err
		}
		preds[i] = tensor.Argmax(out.Data)
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
