package tpu

import (
	"math"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
	"hpnn/internal/tensor"
)

// releaseArchs are the Release fixtures: CNN1 runs the published weights
// directly (no BatchNorm), ResNet-18 folds BatchNorm into cloned weights
// and nests its locked convs inside residual blocks.
var releaseArchs = []struct {
	name  string
	arch  core.Arch
	scale float64
}{
	{"cnn1", core.CNN1, 0},
	{"resnet18", core.ResNet18, 0.125},
}

// forReleaseCases runs fn, as nested scheme/arch subtests, on a fresh
// accelerator that has run the published model through both backends, so
// every buffer Release must wipe exists.
func forReleaseCases(t *testing.T, seed uint64, fn func(t *testing.T, schemeName string, f *batchFixture, a *Accelerator)) {
	for si, schemeName := range lockscheme.Names() {
		t.Run(schemeName, func(t *testing.T) {
			for ai, ac := range releaseArchs {
				t.Run(ac.name, func(t *testing.T) {
					seed := seed + uint64(31*si+7*ai)
					f := publishConfig(t, schemeName, core.Config{Arch: ac.arch, InC: 1, InH: 16, InW: 16, Classes: 4, WidthScale: ac.scale, Seed: seed})
					a := f.accel(t, DefaultConfig())
					x := tensor.New(4, 1, 16, 16)
					x.FillUniform(rng.New(seed+5), -1, 1)
					if err := a.PredictBatchInto(make([]int, 4), f.model, x); err != nil {
						t.Fatal(err)
					}
					if _, err := a.PredictSample(f.model, tensor.FromSlice(x.Data[:16*16], 1, 16, 16)); err != nil {
						t.Fatal(err)
					}
					fn(t, schemeName, f, a)
				})
			}
		})
	}
}

// eachOp calls fn on every compiled op, descending into residual blocks.
func eachOp(ops []planOp, fn func(planOp)) {
	for _, op := range ops {
		fn(op)
		if r, ok := op.(*residualOp); ok {
			eachOp(r.body, fn)
			eachOp(r.skip, fn)
			eachOp(r.post, fn)
		}
	}
}

func opMAC(op planOp) *macCore {
	switch o := op.(type) {
	case *convOp:
		return &o.macCore
	case *denseOp:
		return &o.macCore
	}
	return nil
}

// opMask returns the sign mask s holds for op, or nil for ops without one.
func opMask(s *state, op planOp) *lockMask {
	if mc := opMAC(op); mc != nil {
		return &s.ops[mc.slot].mask
	}
	if o, ok := op.(*lockReluOp); ok {
		return &s.ops[o.slot].mask
	}
	return nil
}

// TestReleaseWipesKeyMaterial: evicting a tenant via Release must zero the
// key-derived sign masks the GEMM tier cached — residual blocks included —
// not just drop the program bindings. The test aliases every built mask's
// backing slice before Release and requires the bytes behind those aliases
// to read zero after: the exact property a reused accelerator needs so the
// next occupant cannot scavenge the previous tenant's key bits out of live
// memory.
func TestReleaseWipesKeyMaterial(t *testing.T) {
	forReleaseCases(t, 9000, func(t *testing.T, schemeName string, _ *batchFixture, a *Accelerator) {
		var masks [][]int32
		for _, s := range a.states {
			eachOp(s.prog.ops, func(op planOp) {
				if lm := opMask(s, op); lm != nil && lm.built {
					masks = append(masks, lm.neg)
				}
			})
		}
		// The MAC-lock scheme must actually have cached key bits
		// here, or the wipe assertion below would pass vacuously.
		// Weight-space schemes legitimately build no masks
		// (MACColumns is nil).
		if schemeName == lockscheme.DefaultName && len(masks) == 0 {
			t.Fatalf("scheme %s built no sign masks; fixture exercises nothing", schemeName)
		}

		a.Release()

		for mi, m := range masks {
			for i, v := range m {
				if v != 0 {
					t.Fatalf("mask %d entry %d = %d after Release; key-derived sign masks not wiped", mi, i, v)
				}
			}
		}
		if len(a.states) != 0 {
			t.Fatalf("Release left %d programs bound", len(a.states))
		}
	})
}

// aliases collects full-capacity aliases of buffers that Release must
// zero, split by element type.
type aliases struct {
	floats [][]float64
	codes  [][]int8
	ints   [][]int32
	idx    [][]int
}

// addState aliases every buffer of a device's state: each slot's output
// (the vector unit's included), sign mask and integer scratch, and the
// input scratch the ops share.
func (al *aliases) addState(s *state) {
	for i := range s.ops {
		o := &s.ops[i]
		al.floats = append(al.floats, o.out.Data[:cap(o.out.Data)], o.scales[:cap(o.scales)])
		al.ints = append(al.ints, o.mask.neg, o.bias[:cap(o.bias)], o.acc[:cap(o.acc)])
		al.codes = append(al.codes, o.x8[:cap(o.x8)], o.q8[:cap(o.q8)])
		al.idx = append(al.idx, o.arg[:cap(o.arg)])
	}
	al.floats = append(al.floats, s.col[:cap(s.col)], s.img[:cap(s.img)], s.in[:cap(s.in)])
}

// addProgram aliases everything a program owns: int8 and widened weight
// codes, the BN fold's biases and a weight-space scheme's clone — never
// the published model's own tensors.
func (al *aliases) addProgram(p *Program) {
	published := map[*float64]bool{}
	for _, prm := range p.model.Net.Params() {
		published[&prm.Value.Data[0]] = true
	}
	eachMAC(p.ops, func(mc *macCore) {
		al.codes = append(al.codes, mc.w8)
		al.floats = append(al.floats, mc.wCodes)
		if !published[&mc.b.Data[0]] {
			al.floats = append(al.floats, mc.b.Data)
		}
	})
	if p.clone != nil {
		for _, prm := range p.clone.Net.Params() {
			al.floats = append(al.floats, prm.Value.Data)
		}
	}
}

// nonzero counts the nonzero entries behind every alias.
func (al *aliases) nonzero() int {
	n := 0
	for _, b := range al.floats {
		for _, v := range b {
			if v != 0 {
				n++
			}
		}
	}
	for _, b := range al.codes {
		for _, v := range b {
			if v != 0 {
				n++
			}
		}
	}
	for _, b := range al.ints {
		for _, v := range b {
			if v != 0 {
				n++
			}
		}
	}
	for _, b := range al.idx {
		for _, v := range b {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// modelBits snapshots every parameter and batch-norm statistic of m as raw
// IEEE bits.
func modelBits(m *core.Model) []uint64 {
	var out []uint64
	for _, p := range m.Net.Params() {
		out = append(out, floatBits(p.Value.Data)...)
	}
	for _, bn := range m.Net.BatchNorms() {
		out = append(out, floatBits(bn.RunMean.Data)...)
		out = append(out, floatBits(bn.RunVar.Data)...)
	}
	return out
}

// TestReleaseWipesPlaintextWeights: Release zeroes every weight the device
// owns — the int8 codes, the widened codes, the BN fold's weights and a
// weight-space scheme's unlocked clone, whose plaintext (XORed with the
// published model) would give away the key — and every buffer of its
// state. It must not write the published model, whose tensors the hpnn-xor
// program runs on directly and every shard shares.
func TestReleaseWipesPlaintextWeights(t *testing.T) {
	forReleaseCases(t, 9500, func(t *testing.T, _ string, f *batchFixture, a *Accelerator) {
		before := modelBits(f.model)
		var al aliases
		for _, s := range a.states {
			al.addState(s)
			al.addProgram(s.prog)
		}
		if al.nonzero() == 0 {
			t.Fatal("no nonzero buffer before Release; fixture exercises nothing")
		}

		a.Release()

		if n := al.nonzero(); n != 0 {
			t.Fatalf("%d entries nonzero after Release", n)
		}
		assertModelBits(t, f.model, before)
	})
}

// assertModelBits fails if m's parameters or statistics moved from before.
func assertModelBits(t *testing.T, m *core.Model, before []uint64) {
	t.Helper()
	after := modelBits(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("published model word %d changed by Release: %x → %x (%v)",
				i, before[i], after[i], math.Float64frombits(after[i]))
		}
	}
}

// TestReleaseWipesVectorOutputs: every op's last output — the vector
// unit's pooling, flatten and global-pool results included — reads zero
// after Release. The vector unit used to run cloned nn layers whose output
// scratch lived outside the device's state, where Release never
// reached it.
func TestReleaseWipesVectorOutputs(t *testing.T) {
	forReleaseCases(t, 9700, func(t *testing.T, _ string, f *batchFixture, a *Accelerator) {
		s, err := a.stateFor(f.model)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(4, 1, 16, 16)
		x.FillUniform(rng.New(9701), -1, 1)
		a.onMMU = false
		var outs [][]float64
		var names []string
		act := x
		for _, op := range s.prog.ops {
			if act, err = op.run(a, s, act); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, act.Data)
			names = append(names, op.opName())
		}
		a.Release()
		for i, buf := range outs {
			nz := 0
			for _, v := range buf {
				if v != 0 {
					nz++
				}
			}
			if nz != 0 {
				t.Errorf("op %d (%s): %d of %d output entries nonzero after Release", i, names[i], nz, len(buf))
			}
		}
	})
}
