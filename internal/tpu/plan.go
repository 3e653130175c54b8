package tpu

import (
	"fmt"
	"math"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/nn"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// This file is the accelerator's model compiler and its executor: it lowers
// a trained network into a sequence of hardware operations, each of which
// runs over a [N, ...] activation block (a single sample is a batch of one).
//
//   - Conv2D/Dense (+ following BatchNorm, Lock, ReLU) fuse into one MAC
//     operation: batch-norm parameters fold into the weights and bias
//     (standard inference-time folding), the lock rides the accumulator
//     key bits and ReLU runs on the activation unit.
//   - Pooling, flatten and a standalone batch-norm run on the vector unit.
//   - Residual blocks compile recursively; the join is an elementwise add
//     on the vector unit, and the block's post Lock+ReLU becomes a
//     vector-unit lock (the same XOR-negation gates, placed on the
//     activation unit's input bus).
//
// Only the MAC step branches on the backend (batch.go): the float GEMM over
// int8 codes with the lock as a sign-mask epilogue, or the simulated MMU
// when the run is on it (PredictSample, GateLevel, Systolic).
//
// A compiled model is split in two: the read-only Program (below) and the
// per-device state, which holds every buffer a run writes. Each op owns one
// state slot, assigned at compile time, holding its output block, the sign
// mask derived from the device's key bits and the MAC step's integer
// scratch; the dead-after-return input scratch is shared by every op. So
// any number of devices run one Program at once, each on its own state.
//
// After the state is sized (lazily by a first batch, or up front by Bind's
// sizing pass) a steady-state inference reuses every buffer, which is what
// makes the per-bit-trial queries of the attack experiments cheap.
//
// This is what lets the full ResNet-18 of Fig. 3/Fig. 5 execute on the
// simulated device, not just the sequential CNNs of Table I.

// planOp is one compiled accelerator operation: run executes it over a
// [N, ...] activation block on device a with a's state s for the program,
// and returns the op's output block. When a.sizing is set, run only sizes
// the state's buffers for the block's shape and returns the (unwritten)
// output: it reads the input's shape, never its data.
type planOp interface {
	run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error)
	opName() string
}

// Program is a model compiled for the accelerator, read-only once built:
// the fused ops with their geometry, the (batch-norm folded) weights' int8
// and widened codes, biases and lock column assignments, plus the unlocked
// clone a weight-space scheme executes — everything the published weights,
// the key device's unlock and the private schedule determine. Every device
// built with the scheme, datapath width, key device and schedule it was
// compiled for can Bind it, so the serving layer's shards share one
// Program per tenant.
type Program struct {
	model  *core.Model // the published model it was compiled from
	scheme string
	bits   int
	dev    *keys.Device
	sched  *schedule.Schedule
	ops    []planOp
	slots  int         // per-device op state entries
	clone  *core.Model // weight-space schemes' unlocked clone, nil otherwise
}

// NewProgram compiles m once for accelerators built with scheme, cfg, dev
// and sched (see NewAcceleratorFor): the scheme's compile-time hooks run
// here, so a weight-space scheme unlocks its private clone once, and every
// weight is quantized and widened once. Bind it to each device that runs
// it; Release it once no device does.
func NewProgram(scheme lockscheme.Scheme, cfg Config, dev *keys.Device, sched *schedule.Schedule, m *core.Model) (*Program, error) {
	if scheme == nil {
		return nil, fmt.Errorf("tpu: program requires a lock scheme")
	}
	if sched == nil {
		return nil, fmt.Errorf("tpu: program requires a schedule")
	}
	bits, err := datapathBits(cfg)
	if err != nil {
		return nil, err
	}
	return compileProgram(scheme, scheme.Lowering(dev, sched), bits, dev, sched, m)
}

// compileProgram checks the model's scheme stamp against the scheme, lets
// the lowering unlock a weight-space clone (the published model m is never
// mutated), and lowers the executed model.
func compileProgram(scheme lockscheme.Scheme, low lockscheme.Lowering, bits int, dev *keys.Device, sched *schedule.Schedule, m *core.Model) (*Program, error) {
	if got := lockscheme.Canonical(m.Scheme); got != scheme.Name() {
		return nil, fmt.Errorf("tpu: model published under scheme %q cannot run on a %q accelerator", got, scheme.Name())
	}
	clone, err := low.UnlockModel(m)
	if err != nil {
		return nil, err
	}
	exec := m
	if clone != nil {
		exec = clone
	}
	c := &planCompiler{low: low, bits: bits}
	ops, err := c.compile(exec.Net)
	if err != nil {
		return nil, err
	}
	return &Program{
		model: m, scheme: scheme.Name(), bits: bits, dev: dev, sched: sched,
		ops: ops, slots: c.slots, clone: clone,
	}, nil
}

// Bytes reports the memory the program holds beyond the published model:
// the widened and int8 weight codes, the batch-norm fold's biases and a
// weight-space scheme's unlocked clone.
func (p *Program) Bytes() int {
	total := 0
	if p.clone != nil {
		for _, prm := range p.clone.Net.Params() {
			total += 8 * len(prm.Value.Data)
		}
	}
	eachMAC(p.ops, func(c *macCore) {
		total += 8*len(c.wCodes) + len(c.w8)
		if c.ownsB {
			total += 8 * len(c.b.Data)
		}
	})
	return total
}

// Release zeroes what the program owns that derives from the weights or
// the key: every op's int8 and widened codes, the batch-norm fold's
// biases, and every parameter of a weight-space scheme's unlocked clone,
// whose plaintext (against the published model) would give the key away.
// It never writes the published model: without a batch-norm fold the
// hpnn-xor program's biases are the published tensors. Call it once no
// device runs the program.
func (p *Program) Release() {
	eachMAC(p.ops, func(c *macCore) {
		clear(c.w8)
		clear(c.wCodes)
		if c.ownsB {
			clear(c.b.Data)
		}
	})
	if p.clone != nil {
		for _, prm := range p.clone.Net.Params() {
			clear(prm.Value.Data)
		}
	}
}

// eachMAC calls fn on every fused conv and dense op, descending into
// residual blocks.
func eachMAC(ops []planOp, fn func(*macCore)) {
	for _, op := range ops {
		switch o := op.(type) {
		case *convOp:
			fn(&o.macCore)
		case *denseOp:
			fn(&o.macCore)
		case *residualOp:
			eachMAC(o.body, fn)
			eachMAC(o.skip, fn)
			eachMAC(o.post, fn)
		}
	}
}

// planCompiler assigns state slots while lowering, and lowers each lock and
// quantizes each weight once.
type planCompiler struct {
	low   lockscheme.Lowering
	bits  int
	slots int
}

func (c *planCompiler) slot() int {
	c.slots++
	return c.slots - 1
}

// compile lowers a network into accelerator operations.
func (c *planCompiler) compile(net *nn.Network) ([]planOp, error) {
	var ops []planOp
	layers := net.Layers
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.Conv2D, *nn.Dense:
			op, consumed, err := c.fuseMAC(layers, i)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
			i += consumed
		case *nn.MaxPool:
			ops = append(ops, &poolOp{geom: l.Geom, slot: c.slot()})
		case *nn.GlobalAvgPool:
			ops = append(ops, &globalPoolOp{slot: c.slot()})
		case *nn.Flatten:
			ops = append(ops, &flattenOp{slot: c.slot()})
		case *nn.ReLU:
			ops = append(ops, &lockReluOp{relu: true, slot: c.slot()})
		case *nn.Lock:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			ops = append(ops, &lockReluOp{
				lockID: l.ID, neurons: l.Neurons(), relu: relu,
				cols: c.low.MACColumns(l.ID, l.Neurons()), slot: c.slot(),
			})
		case *nn.BatchNorm2D:
			// Standalone BN (not behind a conv): eval-mode affine on the
			// vector unit.
			ops = append(ops, &batchNormOp{bn: l, slot: c.slot()})
		case *nn.Residual:
			body, err := c.compile(l.Body)
			if err != nil {
				return nil, err
			}
			var skip []planOp
			if l.Skip != nil {
				if skip, err = c.compile(l.Skip); err != nil {
					return nil, err
				}
			}
			post, err := c.compile(l.Post)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &residualOp{body: body, skip: skip, post: post, slot: c.slot()})
		default:
			return nil, fmt.Errorf("tpu: layer %s is not supported on the accelerator datapath", layers[i].Name())
		}
	}
	return ops, nil
}

// fuseMAC fuses a Conv2D or Dense at index i with an optional following
// BatchNorm2D, Lock and ReLU, returning the fused op and how many extra
// layers were consumed.
func (c *planCompiler) fuseMAC(layers []nn.Layer, i int) (planOp, int, error) {
	consumed := 0
	next := func() nn.Layer {
		if i+consumed+1 < len(layers) {
			return layers[i+consumed+1]
		}
		return nil
	}

	var bn *nn.BatchNorm2D
	if b, ok := next().(*nn.BatchNorm2D); ok {
		bn = b
		consumed++
	}
	var lockID string
	if l, ok := next().(*nn.Lock); ok {
		lockID = l.ID
		consumed++
	}
	relu := false
	if _, ok := next().(*nn.ReLU); ok {
		relu = true
		consumed++
	}

	switch mac := layers[i].(type) {
	case *nn.Conv2D:
		w, b := foldBN(mac.W.Value, mac.B.Value, mac.OutC, bn)
		g := mac.Geom
		op := &convOp{geom: g, macCore: c.macCore(w, b, mac.OutC, g.ColRows(), g.OutH()*g.OutW(),
			lockID, relu, bn != nil)}
		if bn != nil {
			// The folded weights live on only as codes: zero the clone now,
			// so no plaintext copy outlives the compile.
			clear(w.Data)
		}
		return op, consumed, nil
	case *nn.Dense:
		if bn != nil {
			return nil, 0, fmt.Errorf("tpu: BatchNorm2D after Dense is not supported")
		}
		return &denseOp{macCore: c.macCore(mac.W.Value, mac.B.Value, mac.Out, mac.In, 1,
			lockID, relu, false)}, consumed, nil
	default:
		return nil, 0, fmt.Errorf("tpu: fuseMAC on non-MAC layer %s", layers[i].Name())
	}
}

// macCore builds a MAC op's program side: W[m, k] quantized at the
// datapath width and widened once for the GEMM, and the lock's column
// assignment for the op's m·pix outputs per sample.
func (c *planCompiler) macCore(w, b *tensor.Tensor, m, k, pix int, lockID string, relu, ownsB bool) macCore {
	mc := macCore{
		b: b, m: m, k: k, relu: relu, ownsB: ownsB,
		wCodes: make([]float64, len(w.Data)), w8: make([]int8, len(w.Data)),
		slot: c.slot(),
	}
	mc.wScale = quantizeSlice(mc.wCodes, w.Data, c.bits)
	for i, v := range mc.wCodes {
		mc.w8[i] = int8(v)
	}
	if lockID != "" {
		mc.cols = c.low.MACColumns(lockID, m*pix)
	}
	return mc
}

// foldBN folds eval-mode batch-norm into convolution weights and bias:
// scale_c = γ_c/√(var_c+ε);  W'_c = scale_c·W_c;  b'_c = scale_c·(b_c−μ_c)+β_c.
// With bn == nil the original tensors are returned unchanged.
func foldBN(w, b *tensor.Tensor, outC int, bn *nn.BatchNorm2D) (*tensor.Tensor, *tensor.Tensor) {
	if bn == nil {
		return w, b
	}
	k := w.Len() / outC
	fw := w.Clone()
	fb := b.Clone()
	for c := 0; c < outC; c++ {
		std := sqrtf(bn.RunVar.Data[c] + bn.Eps)
		scale := bn.Gamma.Value.Data[c] / std
		row := fw.Data[c*k : (c+1)*k]
		for j := range row {
			row[j] *= scale
		}
		fb.Data[c] = scale*(b.Data[c]-bn.RunMean.Data[c]) + bn.Beta.Value.Data[c]
	}
	return fw, fb
}

// --- per-device state ---------------------------------------------------------

// state is one device's mutable side of a Program, every buffer a run
// writes: one opState per slot, and the input scratch every op of the
// program shares, dead once the op that fills it returns. grow sizes each
// buffer, so sealing the state freezes all of them at once.
type state struct {
	prog   *Program
	own    bool // the device compiled prog itself, so its Release wipes prog too
	sealed bool // growing a buffer past its capacity panics
	ops    []opState
	col    []float64 // the gathered column matrix, quantized in place
	img    []float64 // stride-1 shortcut: the image's codes
	in     []float64 // the dense input's codes
}

// opState is the per-device side of one op: its output block, the sign
// mask built from the device's key bits and the MAC step's integer buffers
// (conv, dense, lockrelu), the per-sample input scales (dense), the argmax
// scratch (max pooling) or the reshaped header (flatten).
type opState struct {
	out    tensor.Tensor
	mask   lockMask
	bias   []int32
	acc    []int32
	x8     []int8 // the MMU's input codes
	q8     []int8 // the activation unit's requantized codes
	scales []float64
	arg    []int
	view   tensor.Tensor
}

// grow returns b resized to n elements, reusing its capacity; contents are
// unspecified after a resize. Past capacity it allocates, unless s is
// sealed: a sealed state was sized for every run it may serve, so growing
// it panics instead.
func grow[T any](s *state, b []T, n int) []T {
	if n <= cap(b) {
		return b[:n]
	}
	if s.sealed {
		panic(fmt.Sprintf("tpu: sealed device state would grow a %d-element buffer to %d", cap(b), n))
	}
	return make([]T, n) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
}

// out returns the output block of the op in slot, resized to shape.
func (s *state) out(slot int, shape ...int) *tensor.Tensor {
	t := &s.ops[slot].out
	t.Data = grow(s, t.Data, tensor.Prod(shape))
	t.Shape = grow(s, t.Shape, len(shape))
	copy(t.Shape, shape)
	return t
}

// bytes reports the state's memory: every op's output, sign mask and
// scratch, and the shared input scratch.
func (s *state) bytes() int {
	total := 8 * (cap(s.col) + cap(s.img) + cap(s.in))
	for i := range s.ops {
		o := &s.ops[i]
		total += 8*(cap(o.out.Data)+cap(o.scales)+cap(o.arg)) +
			4*(cap(o.mask.neg)+cap(o.bias)+cap(o.acc)) + cap(o.x8) + cap(o.q8)
	}
	return total
}

// wipe zeroes every buffer of the state — every op's output (the vector
// unit's included), sign mask and integer scratch, and the input scratch —
// to its full capacity before dropping it, so no alias still reads an
// activation or a key bit, and lifts the seal.
func (s *state) wipe() {
	for i := range s.ops {
		o := &s.ops[i]
		o.mask.wipe()
		clear(o.out.Data[:cap(o.out.Data)])
		clear(o.bias[:cap(o.bias)])
		clear(o.acc[:cap(o.acc)])
		clear(o.x8[:cap(o.x8)])
		clear(o.q8[:cap(o.q8)])
		clear(o.scales[:cap(o.scales)])
		clear(o.arg[:cap(o.arg)])
		*o = opState{}
	}
	clear(s.col[:cap(s.col)])
	clear(s.img[:cap(s.img)])
	clear(s.in[:cap(s.in)])
	s.col, s.img, s.in = nil, nil, nil
	s.sealed = false
}

// --- ops ---------------------------------------------------------------------

// checkImage rejects an activation block whose per-sample shape is not the
// [C, H, W] image g expects.
func checkImage(op string, act *tensor.Tensor, g tensor.ConvGeom) error {
	if len(act.Shape) != 4 || act.Shape[1] != g.InC || act.Shape[2] != g.InH || act.Shape[3] != g.InW {
		//hpnn:allow(noalloc) cold error path
		return fmt.Errorf("tpu: %s input %v does not match geometry %+v", op, act.Shape, g)
	}
	return nil
}

// convOp is a fused convolution (+BN) (+lock) (+ReLU): per sample, W[OutC,
// C·KH·KW] times the sample's column matrix [C·KH·KW, OutH·OutW].
type convOp struct {
	geom tensor.ConvGeom
	macCore
}

func (o *convOp) opName() string { return "conv" }

func (o *convOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	g := o.geom
	if err := checkImage("conv", act, g); err != nil {
		return nil, err
	}
	n, pix := act.Shape[0], g.OutH()*g.OutW()
	out := s.out(o.slot, n, o.m, g.OutH(), g.OutW())
	s.col = grow(s, s.col, o.k*pix)
	col := s.col

	// With stride 1 every input pixel lands in at least one receptive
	// field (the gathered offsets ky−Pad … InH+Pad−KH+ky−Pad cover
	// 0 … InH−1 contiguously, and likewise for width), so the column
	// matrix contains exactly the image's values plus padding zeros and
	// MaxAbs(col) == MaxAbs(image). That lets the GEMM quantize the C·H·W
	// image once and gather its codes — identical scale, identical
	// per-value rounding, ~KH·KW× less rounding work. Strided geometries
	// can skip pixels, so they gather first and quantize the columns in
	// place. The MMU always does the latter, as the hardware would, so the
	// reference shares nothing with the shortcut.
	var img []float64
	if g.Stride == 1 && !a.onMMU {
		s.img = grow(s, s.img, g.InLen())
		img = s.img
	}
	st := o.ready(a, s, pix)
	if a.sizing {
		return out, nil
	}
	in, per := g.InLen(), o.m*pix
	for i := 0; i < n; i++ {
		// Quantization is per sample: the scale tracks each sample's
		// dynamic range whatever batch it arrives in.
		src := act.Data[i*in : (i+1)*in]
		var scale float64
		if img != nil {
			scale = quantizeSlice(img, src, a.bits)
			tensor.Im2ColSlice(col, img, g)
		} else {
			tensor.Im2ColSlice(col, src, g)
			scale = quantizeSlice(col, col, a.bits)
		}
		seg := out.Data[i*per : (i+1)*per]
		if !a.onMMU {
			tensor.MatMulSliceInto(seg, o.wCodes, col, o.m, o.k, pix)
		}
		o.finish(a, st, seg, col, pix, scale)
	}
	return out, nil
}

// denseOp is a fused fully-connected (+lock) (+ReLU): W[Out, In] times each
// sample's input codes.
type denseOp struct{ macCore }

func (o *denseOp) opName() string { return "dense" }

func (o *denseOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	if len(act.Shape) < 2 || tensor.Prod(act.Shape[1:]) != o.k {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: dense input %v does not match layer width %d", act.Shape, o.k)
	}
	n := act.Shape[0]
	// Per-sample quantization, then on the GEMM ONE product over the whole
	// micro-batch: the sample rows' codes times the transposed weight
	// codes, with the exact sums landing in the output block.
	s.in = grow(s, s.in, n*o.k)
	x := s.in
	out := s.out(o.slot, n, o.m)
	st := o.ready(a, s, 1)
	st.scales = grow(s, st.scales, n)
	if a.sizing {
		return out, nil
	}
	for i := 0; i < n; i++ {
		st.scales[i] = quantizeSlice(x[i*o.k:(i+1)*o.k], act.Data[i*o.k:(i+1)*o.k], a.bits)
	}
	if !a.onMMU {
		tensor.MatMulNTSliceInto(out.Data, x, o.wCodes, n, o.k, o.m)
	}
	for i := 0; i < n; i++ {
		o.finish(a, st, out.Data[i*o.m:(i+1)*o.m], x[i*o.k:(i+1)*o.k], 1, st.scales[i])
	}
	return out, nil
}

// poolOp max-pools each sample on the vector unit, into the device state,
// where Release zeroes it with every other output.
type poolOp struct {
	geom tensor.ConvGeom
	slot int
}

func (o *poolOp) opName() string { return "maxpool" }

func (o *poolOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	g := o.geom
	if err := checkImage(o.opName(), act, g); err != nil {
		return nil, err
	}
	n := act.Shape[0]
	out := s.out(o.slot, n, g.InC, g.OutH(), g.OutW())
	in, per := g.InLen(), g.InC*g.OutH()*g.OutW()
	st := &s.ops[o.slot]
	st.arg = grow(s, st.arg, per)
	if a.sizing {
		return out, nil
	}
	for i := 0; i < n; i++ {
		tensor.MaxPool2D(out.Data[i*per:(i+1)*per], st.arg, act.Data[i*in:(i+1)*in], g)
	}
	return out, nil
}

// globalPoolOp averages each channel's spatial map on the vector unit,
// [N, C, H, W] → [N, C].
type globalPoolOp struct{ slot int }

func (o *globalPoolOp) opName() string { return "gap" }

func (o *globalPoolOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	if len(act.Shape) != 4 {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: global pool input %v is not [N, C, H, W]", act.Shape)
	}
	n, c, pix := act.Shape[0], act.Shape[1], act.Shape[2]*act.Shape[3]
	out := s.out(o.slot, n, c)
	if a.sizing {
		return out, nil
	}
	inv := 1 / float64(pix)
	for i := 0; i < n*c; i++ {
		sum := 0.0
		for _, v := range act.Data[i*pix : (i+1)*pix] {
			sum += v
		}
		out.Data[i] = sum * inv
	}
	return out, nil
}

// flattenOp reshapes each sample to a vector: a header over its input,
// kept in the device state.
type flattenOp struct{ slot int }

func (o *flattenOp) opName() string { return "flatten" }

func (o *flattenOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	v := &s.ops[o.slot].view
	v.Shape = grow(s, v.Shape, 2)
	v.Shape[0], v.Shape[1] = act.Shape[0], tensor.Prod(act.Shape[1:])
	v.Data = act.Data
	return v, nil
}

// batchNormOp is a standalone eval-mode batch-norm on the vector unit
// (rare: only when a BN is not preceded by a conv). It reads the executed
// model's parameters and running statistics.
type batchNormOp struct {
	bn   *nn.BatchNorm2D
	slot int
}

func (o *batchNormOp) opName() string { return "batchnorm" }

func (o *batchNormOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	b := o.bn
	if len(act.Shape) != 4 || act.Shape[1] != b.C {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: batch-norm over %d channels got %v", b.C, act.Shape)
	}
	out := s.out(o.slot, act.Shape...)
	if a.sizing {
		return out, nil
	}
	n, c, pix := act.Shape[0], b.C, act.Shape[2]*act.Shape[3]
	for ch := 0; ch < c; ch++ {
		mean := b.RunMean.Data[ch]
		std := math.Sqrt(b.RunVar.Data[ch] + b.Eps)
		g, be := b.Gamma.Value.Data[ch], b.Beta.Value.Data[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * pix
			for p := 0; p < pix; p++ {
				out.Data[base+p] = g*(act.Data[base+p]-mean)/std + be
			}
		}
	}
	return out, nil
}

// lockReluOp applies a standalone lock (XOR-negation on the vector unit's
// input bus) and/or ReLU — used after residual joins and for bare ReLUs.
type lockReluOp struct {
	lockID  string
	neurons int
	relu    bool
	// cols is the lock's column assignment; nil means the scheme places no
	// lock on this bus (weight-space schemes protect parameters, not
	// activations).
	cols []int
	slot int
}

func (o *lockReluOp) opName() string { return "lockrelu" }

func (o *lockReluOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	if o.lockID != "" {
		if per := tensor.Prod(act.Shape[1:]); per != o.neurons {
			//hpnn:allow(noalloc) cold error path
			return nil, fmt.Errorf("tpu: lock %s sized %d applied to %d activations per sample", o.lockID, o.neurons, per)
		}
	}
	out := s.out(o.slot, act.Shape...)
	mask := &s.ops[o.slot].mask
	// On the MMU each key bit comes from the device's column probe, on the
	// GEMM from the op's cached sign mask.
	if o.cols != nil && !a.onMMU {
		mask.refresh(s, a.mmu, o.cols)
	}
	if a.sizing {
		return out, nil
	}
	copy(out.Data, act.Data)
	for j, c := range o.cols {
		if a.onMMU && a.mmu.columnBit(c) == 0 || !a.onMMU && mask.neg[j] == 0 {
			continue
		}
		for i := j; i < len(out.Data); i += o.neurons {
			out.Data[i] = -out.Data[i]
		}
	}
	if o.relu {
		for j, v := range out.Data {
			if v < 0 {
				out.Data[j] = 0
			}
		}
	}
	return out, nil
}

// residualOp executes a compiled residual block: body and skip paths, an
// elementwise join on the vector unit, then the post ops.
type residualOp struct {
	body, skip, post []planOp
	slot             int
}

func (o *residualOp) opName() string { return "residual" }

func (o *residualOp) run(a *Accelerator, s *state, act *tensor.Tensor) (*tensor.Tensor, error) {
	body, err := runOps(a, s, o.body, act)
	if err != nil {
		return nil, err
	}
	skip := act
	if o.skip != nil {
		if skip, err = runOps(a, s, o.skip, act); err != nil {
			return nil, err
		}
	}
	if tensor.Prod(body.Shape) != tensor.Prod(skip.Shape) {
		//hpnn:allow(noalloc) cold error path
		return nil, fmt.Errorf("tpu: residual join mismatch %v vs %v", body.Shape, skip.Shape)
	}
	sum := s.out(o.slot, body.Shape...)
	if !a.sizing {
		for i := range sum.Data {
			sum.Data[i] = body.Data[i] + skip.Data[i]
		}
	}
	return runOps(a, s, o.post, sum)
}

func runOps(a *Accelerator, s *state, ops []planOp, act *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, op := range ops {
		if act, err = op.run(a, s, act); err != nil {
			return nil, fmt.Errorf("%s: %w", op.opName(), err) //hpnn:allow(noalloc) cold error path
		}
	}
	return act, nil
}

// finishMACSlice applies the activation unit (ReLU + requantize) or plain
// dequantization to one sample's accumulators, writing dst and reusing q8
// as the requantization buffer; the possibly regrown buffer is returned for
// the op to keep.
func finishMACSlice(dst []float64, acc []int32, accScale float64, relu bool, q8 []int8) []int8 {
	if relu {
		q, scale := ReLUQuantizeInto(q8, acc, accScale)
		for i, v := range q {
			dst[i] = float64(v) * scale
		}
		return q
	}
	for i, v := range acc {
		dst[i] = float64(v) * accScale
	}
	return q8
}
