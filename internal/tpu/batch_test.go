package tpu

import (
	"fmt"
	"math"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// batchFixture is a random model published under a named lock scheme.
// Random weights are all a bitwise differential needs: the quantized
// datapath is deterministic, so the GEMM tier and the golden MMU path must
// agree bit for bit regardless of training.
type batchFixture struct {
	model *core.Model
	dev   *keys.Device
	sched *schedule.Schedule
}

func publishRandom(t testing.TB, schemeName string, arch core.Arch, hw int, seed uint64) *batchFixture {
	return publishConfig(t, schemeName, core.Config{Arch: arch, InC: 1, InH: hw, InW: hw, Classes: 4, Seed: seed})
}

func publishConfig(t testing.TB, schemeName string, cfg core.Config) *batchFixture {
	t.Helper()
	scheme, err := lockscheme.Get(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	seed := cfg.Seed
	m := core.MustModel(cfg)
	key := keys.Generate(rng.New(seed + 1))
	sched := schedule.New(keys.KeyBits, seed+2)
	dev := keys.NewDevice("batch-test", key)
	if err := scheme.InstrumentTraining(m, dev, sched); err != nil {
		t.Fatal(err)
	}
	if err := scheme.Publish(m, dev, sched); err != nil {
		t.Fatal(err)
	}
	return &batchFixture{model: m, dev: dev, sched: sched}
}

func (f *batchFixture) accel(t testing.TB, cfg Config) *Accelerator {
	t.Helper()
	scheme, err := lockscheme.Get(lockscheme.Canonical(f.model.Scheme))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAcceleratorFor(scheme, cfg, f.dev, f.sched)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// goldenPredict is the golden oracle: PredictSample, sample by sample.
func goldenPredict(t testing.TB, a *Accelerator, m *core.Model, x *tensor.Tensor) []int {
	t.Helper()
	n := x.Shape[0]
	feat := x.Len() / n
	out := make([]int, n)
	for i := range out {
		var err error
		if out[i], err = a.PredictSample(m, tensor.FromSlice(x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// assertMMUOnly fails if any MAC op of a's programs ran on the GEMM: the
// golden side must never share the tier it judges. Only the MMU narrows an
// op's input codes into its x8 scratch, and only the GEMM builds sign
// masks.
func assertMMUOnly(t testing.TB, a *Accelerator) {
	t.Helper()
	for _, s := range a.states {
		eachOp(s.prog.ops, func(op planOp) {
			if mc := opMAC(op); mc != nil && len(s.ops[mc.slot].x8) == 0 {
				t.Fatalf("golden %s never ran on the MMU", op.opName())
			}
			if lm := opMask(s, op); lm != nil && lm.built {
				t.Fatalf("golden %s built a GEMM sign mask", op.opName())
			}
		})
	}
}

// floatBits snapshots a float slice as raw IEEE bits, the strictest
// possible equality for the differential tests.
func floatBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

var batchArchs = []struct {
	name string
	arch core.Arch
	hw   int
}{
	{"mlp8", core.MLP, 8},
	{"cnn16", core.CNN1, 16},
}

// TestPredictBatchMatchesGoldenAllSchemes is the heart of the golden-
// reference contract: for every registered lock scheme, both sequential
// architectures and the 8-, 4- and 2-bit datapaths, every sample of every
// batch size must reproduce PredictSample's final activations bit for bit —
// and a full pass over the batch must leave identical hardware counters.
//
// The last two samples are extreme. One is scaled by 1e-300, so the first
// layer's quantized biases saturate at ±MaxInt32 and the int32 sums wrap.
// The other has one value of 1e-307 and zeros elsewhere: the wire accepts
// it because it is finite, its 1/scale overflows to +Inf, and its zeros
// quantize through 0·Inf = NaN, which the golden path stores as code 0.
func TestPredictBatchMatchesGoldenAllSchemes(t *testing.T) {
	const n = 10
	for si, schemeName := range lockscheme.Names() {
		for ai, ac := range batchArchs {
			t.Run(schemeName+"/"+ac.name, func(t *testing.T) {
				seed := uint64(3000 + 97*si + 13*ai)
				f := publishRandom(t, schemeName, ac.arch, ac.hw, seed)
				feat := ac.hw * ac.hw
				x := tensor.New(n, 1, ac.hw, ac.hw)
				x.FillUniform(rng.New(seed+7), -1, 1)
				tiny := x.Data[(n-2)*feat : (n-1)*feat]
				for i := range tiny {
					tiny[i] *= 1e-300
				}
				lone := x.Data[(n-1)*feat:]
				for i := range lone {
					lone[i] = 0
				}
				lone[feat/2+ac.hw/2] = 1e-307

				for _, bits := range []int{8, 4, 2} {
					t.Run(fmt.Sprintf("bits%d", bits), func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.Bits = bits
						golden := f.accel(t, cfg)
						want := make([][]uint64, n)
						wantPreds := make([]int, n)
						for i := 0; i < n; i++ {
							out, err := golden.runSample(f.model, tensor.FromSlice(x.Data[i*feat:(i+1)*feat], 1, ac.hw, ac.hw))
							if err != nil {
								t.Fatal(err)
							}
							want[i] = floatBits(out.Data)
							wantPreds[i] = tensor.Argmax(out.Data)
						}
						assertMMUOnly(t, golden)
						goldenStats := golden.Stats()

						for _, bn := range []int{1, 3, 5, n} {
							fast := f.accel(t, cfg)
							fs, err := fast.stateFor(f.model)
							if err != nil {
								t.Fatal(err)
							}
							for lo := 0; lo+bn <= n; lo += bn {
								bx := tensor.FromSlice(x.Data[lo*feat:(lo+bn)*feat], bn, 1, ac.hw, ac.hw)
								out, err := runOps(fast, fs, fs.prog.ops, bx)
								if err != nil {
									t.Fatal(err)
								}
								per := out.Len() / bn
								for j := 0; j < bn; j++ {
									got := floatBits(out.Data[j*per : (j+1)*per])
									for k := range got {
										if got[k] != want[lo+j][k] {
											t.Fatalf("batch %d sample %d: activation %d = %x, golden %x",
												bn, lo+j, k, got[k], want[lo+j][k])
										}
									}
									if p := tensor.Argmax(out.Data[j*per : (j+1)*per]); p != wantPreds[lo+j] {
										t.Fatalf("batch %d sample %d: class %d, golden %d", bn, lo+j, p, wantPreds[lo+j])
									}
								}
							}
							if bn == n {
								if got := fast.Stats(); got != goldenStats {
									t.Fatalf("hardware counters diverge: batched %+v, golden %+v", got, goldenStats)
								}
							}
						}
					})
				}
			})
		}
	}
}

// TestPredictBatchMatchesGateLevel pins the GEMM tier to the gate-level
// accumulator chain — the repo's root reference — through the public entry
// points, for every registered scheme.
func TestPredictBatchMatchesGateLevel(t *testing.T) {
	gateCfg := Config{Rows: 256, Cols: 256, GateLevel: true}
	for si, schemeName := range lockscheme.Names() {
		t.Run(schemeName, func(t *testing.T) {
			f := publishRandom(t, schemeName, core.MLP, 8, uint64(4000+31*si))
			x := tensor.New(4, 1, 8, 8)
			x.FillUniform(rng.New(uint64(4100+si)), -1, 1)

			gate := f.accel(t, gateCfg)
			want, err := gate.Predict(f.model, x)
			if err != nil {
				t.Fatal(err)
			}
			if gate.Stats().GateOps == 0 {
				t.Fatal("gate-level reference counted no gates")
			}
			fast := f.accel(t, DefaultConfig())
			got, err := fast.Predict(f.model, x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: batched class %d, gate-level %d", i, got[i], want[i])
				}
			}
		})
	}

	// One convolutional model through the default scheme: the conv path's
	// im2col + packed GEMM against bit-level accumulator chains.
	f := publishRandom(t, lockscheme.DefaultName, core.CNN1, 16, 4200)
	x := tensor.New(2, 1, 16, 16)
	x.FillUniform(rng.New(4201), -1, 1)
	gate := f.accel(t, gateCfg)
	want, err := gate.Predict(f.model, x)
	if err != nil {
		t.Fatal(err)
	}
	fast := f.accel(t, DefaultConfig())
	got, err := fast.Predict(f.model, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cnn sample %d: batched class %d, gate-level %d", i, got[i], want[i])
		}
	}
}

// TestPredictBatchGateLevelFallback: diagnostic device modes must run a
// batch's MACs on the MMU (observing every gate), and still answer
// identically.
func TestPredictBatchGateLevelFallback(t *testing.T) {
	f := publishRandom(t, lockscheme.DefaultName, core.MLP, 8, 4300)
	x := tensor.New(3, 1, 8, 8)
	x.FillUniform(rng.New(4301), -1, 1)

	gate := f.accel(t, Config{Rows: 256, Cols: 256, GateLevel: true})
	got, err := gate.Predict(f.model, x)
	if err != nil {
		t.Fatal(err)
	}
	if gate.Stats().GateOps == 0 {
		t.Fatal("gate-level Predict bypassed the bit-level datapath")
	}
	fast := f.accel(t, DefaultConfig())
	want, err := fast.Predict(f.model, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: gate-level fallback class %d, fast %d", i, got[i], want[i])
		}
	}
}

// TestPredictBatchResNet18 routes the GEMM tier through the residual
// lowering — body/skip joins, post-join vector-unit locks, folded batch
// norms, strided convs — and demands bitwise agreement with PredictSample.
func TestPredictBatchResNet18(t *testing.T) {
	const n = 3
	m := core.MustModel(core.Config{Arch: core.ResNet18, InC: 1, InH: 16, InW: 16, WidthScale: 0.125, Seed: 4400})
	key := keys.Generate(rng.New(4401))
	sched := schedule.New(keys.KeyBits, 4402)
	m.ApplyRawKey(key, sched)
	dev := keys.NewDevice("user", key)
	x := tensor.New(n, 1, 16, 16)
	x.FillUniform(rng.New(4403), -1, 1)

	golden, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	feat := 16 * 16
	want := make([][]uint64, n)
	for i := 0; i < n; i++ {
		out, err := golden.runSample(m, tensor.FromSlice(x.Data[i*feat:(i+1)*feat], 1, 16, 16))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = floatBits(out.Data)
	}
	assertMMUOnly(t, golden)

	fast, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fast.stateFor(m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runOps(fast, fs, fs.prog.ops, x)
	if err != nil {
		t.Fatal(err)
	}
	per := out.Len() / n
	for i := 0; i < n; i++ {
		got := floatBits(out.Data[i*per : (i+1)*per])
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("sample %d activation %d: %x, golden %x", i, k, got[k], want[i][k])
			}
		}
	}
	if got, g := fast.Stats(), golden.Stats(); got != g {
		t.Fatalf("ResNet-18 counters diverge: batched %+v, golden %+v", got, g)
	}
}

// TestPredictBatchDeterministicAcrossWorkers pins bitwise determinism of
// the GEMM tier across worker-pool widths.
func TestPredictBatchDeterministicAcrossWorkers(t *testing.T) {
	const n = 8
	f := publishRandom(t, lockscheme.DefaultName, core.CNN1, 16, 4500)
	x := tensor.New(n, 1, 16, 16)
	x.FillUniform(rng.New(4501), -1, 1)
	a := f.accel(t, DefaultConfig())
	s, err := a.stateFor(f.model)
	if err != nil {
		t.Fatal(err)
	}

	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	out, err := runOps(a, s, s.prog.ops, x)
	if err != nil {
		t.Fatal(err)
	}
	ref := floatBits(out.Data)
	for _, w := range []int{2, 8} {
		tensor.SetMaxWorkers(w)
		out, err := runOps(a, s, s.prog.ops, x)
		if err != nil {
			t.Fatal(err)
		}
		got := floatBits(out.Data)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: activation %d = %x, want %x (workers=1)", w, i, got[i], ref[i])
			}
		}
	}
}

// TestPredictBatchPartialAfterSeal: a shard warms at its maximum batch,
// seals, and must still serve partial batches — within the sealed
// workspace, still bitwise-equal to the golden path.
func TestPredictBatchPartialAfterSeal(t *testing.T) {
	const maxN = 8
	f := publishRandom(t, lockscheme.DefaultName, core.CNN1, 16, 4600)
	feat := 16 * 16
	x := tensor.New(maxN, 1, 16, 16)
	x.FillUniform(rng.New(4601), -1, 1)

	want := goldenPredict(t, f.accel(t, DefaultConfig()), f.model, x)

	a := f.accel(t, DefaultConfig())
	preds := make([]int, maxN)
	if err := a.PredictBatchInto(preds, f.model, x); err != nil {
		t.Fatal(err)
	}
	a.Seal()
	if !a.WorkspaceSealed() {
		t.Fatal("workspace did not seal")
	}
	for _, bn := range []int{3, 1} {
		bx := tensor.FromSlice(x.Data[:bn*feat], bn, 1, 16, 16)
		if err := a.PredictBatchInto(preds[:bn], f.model, bx); err != nil {
			t.Fatalf("sealed batch %d: %v", bn, err)
		}
		for i := 0; i < bn; i++ {
			if preds[i] != want[i] {
				t.Fatalf("sealed batch %d sample %d: class %d, golden %d", bn, i, preds[i], want[i])
			}
		}
	}
}

// TestPredictBatchRevocation: the batched tier caches key bits as sign
// masks, so a license pull mid-service is the one event that must
// invalidate them. After revocation the same accelerator must answer
// exactly like a fresh golden device over the now-dead license.
func TestPredictBatchRevocation(t *testing.T) {
	const n = 4
	key := keys.Generate(rng.New(4700))
	auth := keys.NewAuthority(key)
	dev, err := auth.Issue("license-1")
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule.New(keys.KeyBits, 4701)
	m := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Classes: 4, Seed: 4702})
	m.ApplyRawKey(key, sched)
	x := tensor.New(n, 1, 16, 16)
	x.FillUniform(rng.New(4703), -1, 1)

	a, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]int, n)
	if err := a.PredictBatchInto(preds, m, x); err != nil {
		t.Fatal(err)
	}
	if a.Stats().LockedOutputs == 0 {
		t.Fatal("live license produced no locked outputs")
	}

	if err := auth.Revoke("license-1"); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	if err := a.PredictBatchInto(preds, m, x); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().LockedOutputs; got != 0 {
		t.Fatalf("revoked license still locked %d outputs — stale sign-mask cache", got)
	}
	// A fresh device over the same revoked license is the golden reference.
	golden, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenPredict(t, golden, m, x)
	for i := range want {
		if preds[i] != want[i] {
			t.Fatalf("post-revocation sample %d: cached-mask class %d, golden %d", i, preds[i], want[i])
		}
	}
}

// TestPredictBatchZeroAllocSteadyState pins the serving contract: once a
// shard has warmed and sealed, a batched inference performs zero heap
// allocations.
func TestPredictBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	for _, ac := range batchArchs {
		t.Run(ac.name, func(t *testing.T) {
			const n = 8
			f := publishRandom(t, lockscheme.DefaultName, ac.arch, ac.hw, 4800)
			x := tensor.New(n, 1, ac.hw, ac.hw)
			x.FillUniform(rng.New(4801), -1, 1)
			a := f.accel(t, DefaultConfig())
			preds := make([]int, n)
			for warm := 0; warm < 2; warm++ {
				if err := a.PredictBatchInto(preds, f.model, x); err != nil {
					t.Fatal(err)
				}
			}
			a.Seal()
			avg := testing.AllocsPerRun(10, func() {
				if err := a.PredictBatchInto(preds, f.model, x); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state batched inference allocates %.1f/op, want 0", avg)
			}
		})
	}
}

// TestQuantizeSliceMatchesQuantizeToInto pins the raw-slice quantizer to
// the tensor one, operation for operation — the batched tier depends on
// this equality for its bitwise contract. The widened codes must be
// exactly the int8 codes, including a sample so small that 1/scale is +Inf
// and its zeros round through NaN.
func TestQuantizeSliceMatchesQuantizeToInto(t *testing.T) {
	cases := [][]float64{
		{},
		{0, 0, 0},
		{1},
		{-1, 1, 0.5, -0.25, 1e-9, -1e9, 127.4, -127.6},
		{1e-307, 0, -1e-307, 0},
	}
	r := rng.New(4900)
	big := make([]float64, 513)
	for i := range big {
		big[i] = (float64(r.Uint64()%2000) - 1000) / 97
	}
	cases = append(cases, big)

	var q *QTensor
	for bits := 2; bits <= 8; bits++ {
		for ci, src := range cases {
			tt := tensor.FromSlice(append([]float64(nil), src...), len(src))
			q = QuantizeToInto(q, tt, bits)
			dst := make([]float64, len(src))
			scale := quantizeSlice(dst, src, bits)
			if math.Float64bits(scale) != math.Float64bits(q.Scale) {
				t.Fatalf("bits=%d case %d: scale %v vs %v", bits, ci, scale, q.Scale)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(float64(q.Data[i])) {
					t.Fatalf("bits=%d case %d elem %d: %v vs %d", bits, ci, i, dst[i], q.Data[i])
				}
			}
		}
	}
}

// FuzzPredictBatch generates random models, schemes and batches, and
// asserts the GEMM tier reproduces PredictSample's predictions and
// hardware counters exactly; small MLPs are additionally checked against
// the gate-level datapath.
func FuzzPredictBatch(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(3), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(0), uint8(7), uint8(1), uint64(2))
	f.Add(uint8(0), uint8(10), uint8(0), uint8(2), uint64(3))
	f.Add(uint8(1), uint8(1), uint8(4), uint8(0), uint64(4))
	f.Fuzz(func(t *testing.T, archB, hwB, nB, schemeB uint8, seed uint64) {
		schemes := lockscheme.Names()
		schemeName := schemes[int(schemeB)%len(schemes)]
		var arch core.Arch
		var hw int
		gateCheck := false
		if archB%2 == 0 {
			arch = core.MLP
			hw = 6 + int(hwB)%11 // 6..16
			gateCheck = hw <= 10 // keep the bit-level pass cheap
		} else {
			arch = core.CNN1
			hw = 16 + 2*(int(hwB)%2) // 16 or 18 (needs hw ≥ 16)
		}
		n := 1 + int(nB)%8

		fx := publishRandom(t, schemeName, arch, hw, seed)
		x := tensor.New(n, 1, hw, hw)
		x.FillUniform(rng.New(seed+9), -1, 1)

		golden := fx.accel(t, DefaultConfig())
		want := goldenPredict(t, golden, fx.model, x)
		fast := fx.accel(t, DefaultConfig())
		got, err := fast.Predict(fx.model, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s/%s hw=%d n=%d sample %d: batched class %d, golden %d",
					schemeName, archName(arch), hw, n, i, got[i], want[i])
			}
		}
		if gs, fs := golden.Stats(), fast.Stats(); gs != fs {
			t.Fatalf("%s/%s hw=%d n=%d: counters diverge: batched %+v, golden %+v",
				schemeName, archName(arch), hw, n, fs, gs)
		}
		if gateCheck {
			gate := fx.accel(t, Config{Rows: 256, Cols: 256, GateLevel: true})
			gw, err := gate.Predict(fx.model, x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gw {
				if got[i] != gw[i] {
					t.Fatalf("%s hw=%d n=%d sample %d: batched class %d, gate-level %d",
						schemeName, hw, n, i, got[i], gw[i])
				}
			}
		}
	})
}

func archName(a core.Arch) string { return fmt.Sprintf("%v", a) }
