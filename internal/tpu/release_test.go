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

func opMask(op planOp) *lockMask {
	switch o := op.(type) {
	case *convOp:
		return &o.mask
	case *denseOp:
		return &o.mask
	case *lockReluOp:
		return &o.mask
	}
	return nil
}

// TestReleaseWipesKeyMaterial: evicting a tenant via Release must zero the
// key-derived sign masks the GEMM tier cached — residual blocks included —
// not just drop the plan map entries. The test aliases every built mask's
// backing slice before Release and requires the bytes behind those aliases
// to read zero after: the exact property a reused accelerator needs so the
// next occupant cannot scavenge the previous tenant's key bits out of live
// memory.
func TestReleaseWipesKeyMaterial(t *testing.T) {
	forReleaseCases(t, 9000, func(t *testing.T, schemeName string, _ *batchFixture, a *Accelerator) {
		var masks [][]int32
		for _, c := range a.plans {
			eachOp(c.ops, func(op planOp) {
				if lm := opMask(op); lm != nil && lm.built {
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
		if len(a.plans) != 0 {
			t.Fatalf("Release left %d plans cached", len(a.plans))
		}
	})
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
// owns — the int8 codes, the widened codes and every other workspace
// buffer, the BN fold's weights, and a weight-space scheme's unlocked
// clone, whose plaintext (XORed with the published model) would give away
// the key. It must not write the published model, whose tensors the
// hpnn-xor plan runs on directly and every shard shares.
func TestReleaseWipesPlaintextWeights(t *testing.T) {
	forReleaseCases(t, 9500, func(t *testing.T, _ string, f *batchFixture, a *Accelerator) {
		published := map[*float64]bool{}
		for _, p := range f.model.Net.Params() {
			published[&p.Value.Data[0]] = true
		}
		before := modelBits(f.model)

		var floats [][]float64
		var codes [][]int8
		for _, c := range a.plans {
			eachOp(c.ops, func(op planOp) {
				switch o := op.(type) {
				case *lockReluOp:
					floats = append(floats, a.ws.Get(o.outKey, 1).Data)
				case *residualOp:
					floats = append(floats, a.ws.Get(o.sumKey, 1).Data)
				}
				mc := opMAC(op)
				if mc == nil {
					return
				}
				codes = append(codes, mc.qW.Data)
				floats = append(floats, a.ws.Get(mc.outKey, 1).Data, a.ws.Get(mc.wKey, 1).Data)
				for _, w := range []*tensor.Tensor{mc.w, mc.b} {
					if !published[&w.Data[0]] {
						floats = append(floats, w.Data)
					}
				}
			})
			if c.clone != nil {
				for _, p := range c.clone.Net.Params() {
					floats = append(floats, p.Value.Data)
				}
			}
		}
		for _, key := range []string{colKey, imgKey, inKey} {
			floats = append(floats, a.ws.Get(key, 1).Data)
		}
		nonzero := 0
		for _, buf := range floats {
			for _, v := range buf[:cap(buf)] {
				if v != 0 {
					nonzero++
				}
			}
		}
		if nonzero == 0 {
			t.Fatal("no nonzero buffer before Release; fixture exercises nothing")
		}

		a.Release()

		for bi, buf := range floats {
			for i, v := range buf[:cap(buf)] {
				if v != 0 {
					t.Fatalf("buffer %d entry %d = %v after Release", bi, i, v)
				}
			}
		}
		for ci, c := range codes {
			for i, v := range c {
				if v != 0 {
					t.Fatalf("weight codes %d entry %d = %d after Release", ci, i, v)
				}
			}
		}
		after := modelBits(f.model)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("published model word %d changed by Release: %x → %x (%v)",
					i, before[i], after[i], math.Float64frombits(after[i]))
			}
		}
	})
}
