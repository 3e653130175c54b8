package tpu

import (
	"fmt"
	"sync"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// sharedArchs are the shared-program fixtures: a dense-only net, a
// sequential CNN and a residual net with folded batch norms.
var sharedArchs = []struct {
	name  string
	arch  core.Arch
	scale float64
}{
	{"mlp", core.MLP, 0},
	{"cnn1", core.CNN1, 0},
	{"resnet18", core.ResNet18, 0.125},
}

// forSharedCases runs fn, as scheme/arch subtests, on a published model,
// a program compiled once for it, and its samples' golden classes from
// PredictSample on a device of its own.
func forSharedCases(t *testing.T, seed uint64, n int, fn func(t *testing.T, f *batchFixture, p *Program, x *tensor.Tensor, want []int)) {
	for si, schemeName := range lockscheme.Names() {
		t.Run(schemeName, func(t *testing.T) {
			for ai, ac := range sharedArchs {
				t.Run(ac.name, func(t *testing.T) {
					seed := seed + uint64(31*si+7*ai)
					f := publishConfig(t, schemeName, core.Config{Arch: ac.arch, InC: 1, InH: 16, InW: 16, Classes: 6, WidthScale: ac.scale, Seed: seed})
					x := tensor.New(n, 1, 16, 16)
					x.FillUniform(rng.New(seed+3), -1, 1)
					want := goldenPredict(t, f.accel(t, DefaultConfig()), f.model, x)
					fn(t, f, f.program(t), x, want)
				})
			}
		})
	}
}

// bindShards binds k fresh devices to p, each sized for maxBatch and
// sealed: the serving layer's shard topology.
func bindShards(t *testing.T, f *batchFixture, p *Program, k, maxBatch int) []*Accelerator {
	t.Helper()
	accs := make([]*Accelerator, k)
	for i := range accs {
		accs[i] = f.accel(t, DefaultConfig())
		if err := accs[i].Bind(p, maxBatch); err != nil {
			t.Fatal(err)
		}
		accs[i].Seal()
	}
	return accs
}

// TestServeConcurrentAccelerators is the hardware half of the serving
// layer's differential harness: four devices bound to ONE program — the
// shard topology of internal/serve — hammer it concurrently with every
// batch size, and every answer must equal the golden PredictSample
// reference. The program is shared read-only; each device writes only its
// own state. Run under -race by scripts/check.sh.
func TestServeConcurrentAccelerators(t *testing.T) {
	const n, shards, maxBatch, rounds = 12, 4, 8, 6
	forSharedCases(t, 500, n, func(t *testing.T, f *batchFixture, p *Program, x *tensor.Tensor, want []int) {
		accs := bindShards(t, f, p, shards, maxBatch)
		feat := x.Len() / n
		errs := make(chan error, shards)
		var wg sync.WaitGroup
		for s, acc := range accs {
			wg.Add(1)
			go func(s int, acc *Accelerator) {
				defer wg.Done()
				preds := make([]int, maxBatch)
				var view tensor.Tensor
				for r := 0; r < rounds; r++ {
					b := 1 + (s+3*r)%maxBatch
					lo := (s + 5*r) % (n - b + 1)
					bx := tensor.ViewInto(&view, x.Data[lo*feat:(lo+b)*feat], b, 1, 16, 16)
					if err := acc.PredictBatchInto(preds, f.model, bx); err != nil {
						errs <- err
						return
					}
					for i := 0; i < b; i++ {
						if preds[i] != want[lo+i] {
							errs <- fmt.Errorf("shard %d batch %d sample %d: class %d, golden %d", s, b, lo+i, preds[i], want[lo+i])
							return
						}
					}
				}
			}(s, acc)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestBindSealsBeforeAnyMAC: Bind sizes a device's state from the
// program's shapes alone, so a shard can seal before any inference runs —
// no MAC, no cycle, nothing locked — and then serve every batch size up to
// the bound one.
func TestBindSealsBeforeAnyMAC(t *testing.T) {
	f := publishRandom(t, lockscheme.DefaultName, core.CNN1, 16, 600)
	p := f.program(t)
	a := bindShards(t, f, p, 1, 8)[0]
	if st := a.Stats(); st != (Stats{}) {
		t.Fatalf("Bind ran the datapath: %+v", st)
	}
	if !a.WorkspaceSealed() || a.WorkspaceBytes() == 0 {
		t.Fatalf("bound device sealed %v with %d bytes", a.WorkspaceSealed(), a.WorkspaceBytes())
	}
	x := tensor.New(8, 1, 16, 16)
	x.FillUniform(rng.New(601), -1, 1)
	want := goldenPredict(t, f.accel(t, DefaultConfig()), f.model, x)
	preds := make([]int, 8)
	for b := 8; b >= 1; b-- {
		if err := a.PredictBatchInto(preds, f.model, tensor.FromSlice(x.Data[:b*256], b, 1, 16, 16)); err != nil {
			t.Fatalf("sealed batch %d: %v", b, err)
		}
		for i := 0; i < b; i++ {
			if preds[i] != want[i] {
				t.Fatalf("batch %d sample %d: class %d, golden %d", b, i, preds[i], want[i])
			}
		}
	}
	if err := a.Bind(p, 8); err == nil {
		t.Fatal("second Bind of one program on one device accepted")
	}
	other := publishRandom(t, lockscheme.DefaultName, core.CNN1, 16, 602)
	if err := f.accel(t, DefaultConfig()).Bind(other.program(t), 8); err == nil {
		t.Fatal("program compiled for another device bound")
	}
}

// TestBindSealCoversEveryBuffer: the seal of a bound device guards every
// buffer of its state, not only the output blocks. It serves every batch up
// to the bound one, and panics, its memory unchanged, on a run that would
// grow any buffer: a larger batch, or PredictSample, whose MMU scratch a
// GEMM Bind never sized. Release lifts the seal, and the device binds the
// program again and answers as the golden reference does.
func TestBindSealCoversEveryBuffer(t *testing.T) {
	const maxBatch = 8
	forSharedCases(t, 800, maxBatch+1, func(t *testing.T, f *batchFixture, p *Program, x *tensor.Tensor, want []int) {
		a := bindShards(t, f, p, 1, maxBatch)[0]
		preds := make([]int, maxBatch+1)
		check := func(what string, n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				if preds[i] != want[i] {
					t.Fatalf("%s sample %d: class %d, golden %d", what, i, preds[i], want[i])
				}
			}
		}
		for b := 1; b <= maxBatch; b++ {
			if err := a.PredictBatchInto(preds, f.model, tensor.FromSlice(x.Data[:b*256], b, 1, 16, 16)); err != nil {
				t.Fatalf("sealed batch %d: %v", b, err)
			}
			check(fmt.Sprintf("sealed batch %d", b), b)
		}
		bytes := a.WorkspaceBytes()
		mustPanic := func(what string, run func() error) {
			t.Helper()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a sealed device did not panic", what)
					}
				}()
				if err := run(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}()
			if got := a.WorkspaceBytes(); got != bytes {
				t.Fatalf("%s grew the sealed device from %d to %d bytes", what, bytes, got)
			}
		}
		mustPanic("batch of 9", func() error { return a.PredictBatchInto(preds, f.model, x) })
		mustPanic("PredictSample", func() error {
			_, err := a.PredictSample(f.model, tensor.FromSlice(x.Data[:256], 1, 16, 16))
			return err
		})

		a.Release()
		if a.WorkspaceSealed() {
			t.Fatal("Release left the device sealed")
		}
		if err := a.Bind(p, maxBatch); err != nil {
			t.Fatal(err)
		}
		if err := a.PredictBatchInto(preds, f.model, x); err != nil {
			t.Fatal(err)
		}
		check("rebound batch of 9", maxBatch+1)
		for i := range want {
			got, err := a.PredictSample(f.model, tensor.FromSlice(x.Data[i*256:(i+1)*256], 1, 16, 16))
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Fatalf("rebound PredictSample %d: class %d, golden %d", i, got, want[i])
			}
		}
	})
}

// program compiles f's model once for devices built like f.accel's.
func (f *batchFixture) program(t testing.TB) *Program {
	t.Helper()
	scheme, err := lockscheme.Get(lockscheme.Canonical(f.model.Scheme))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(scheme, DefaultConfig(), f.dev, f.sched, f.model)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBindFirstBatchAllocatesNothing: a freshly bound, sealed device's
// very first batch — at every size from 1 to the bound one — allocates
// nothing, because Bind already sized its whole state. One unrelated
// inference first warms the process-wide GEMM scratch and worker pool.
// The count is runtime.MemStats mallocs averaged, as AllocsPerRun does,
// over first batches on ten fresh devices, so a thread the runtime starts
// now and then does not read as a leak.
func TestBindFirstBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const maxBatch = 8
	for _, ac := range sharedArchs {
		t.Run(ac.name, func(t *testing.T) {
			f := publishConfig(t, lockscheme.DefaultName, core.Config{Arch: ac.arch, InC: 1, InH: 16, InW: 16, Classes: 6, WidthScale: ac.scale, Seed: 610})
			x := tensor.New(maxBatch, 1, 16, 16)
			x.FillUniform(rng.New(611), -1, 1)
			preds := make([]int, maxBatch)
			if err := f.accel(t, DefaultConfig()).PredictBatchInto(preds, f.model, x); err != nil {
				t.Fatal(err)
			}
			p := f.program(t)
			const runs = 10
			for b := 1; b <= maxBatch; b++ {
				// AllocsPerRun calls the function once more as its own
				// warm-up: one device per call keeps every call a first.
				devs := bindShards(t, f, p, runs+1, maxBatch)
				bx := tensor.FromSlice(x.Data[:b*256], b, 1, 16, 16)
				next := 0
				avg := testing.AllocsPerRun(runs, func() {
					if err := devs[next].PredictBatchInto(preds, f.model, bx); err != nil {
						t.Fatal(err)
					}
					next++
				})
				if avg != 0 {
					t.Fatalf("first batch of %d allocated %.1f times per device", b, avg)
				}
			}
		})
	}
}

// TestReleaseSharedProgram: releasing one device wipes only its own state
// — the devices still bound keep answering bitwise — and once every device
// and then the program are released, every alias of the program and of
// each state reads zero, with the published model byte-identical.
func TestReleaseSharedProgram(t *testing.T) {
	const n, shards = 6, 4
	forSharedCases(t, 700, n, func(t *testing.T, f *batchFixture, p *Program, x *tensor.Tensor, want []int) {
		before := modelBits(f.model)
		accs := bindShards(t, f, p, shards, n)
		preds := make([]int, n)
		for _, a := range accs {
			if err := a.PredictBatchInto(preds, f.model, x); err != nil {
				t.Fatal(err)
			}
		}
		var al aliases
		al.addProgram(p)
		for _, a := range accs {
			al.addState(a.states[f.model])
		}
		if al.nonzero() == 0 {
			t.Fatal("nothing to wipe; fixture exercises nothing")
		}
		for i, a := range accs {
			a.Release()
			for _, b := range accs[i+1:] {
				if err := b.PredictBatchInto(preds, f.model, x); err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if preds[j] != want[j] {
						t.Fatalf("after releasing device %d: sample %d class %d, golden %d", i, j, preds[j], want[j])
					}
				}
			}
		}
		p.Release()
		if nz := al.nonzero(); nz != 0 {
			t.Fatalf("%d entries nonzero after releasing every device and the program", nz)
		}
		assertModelBits(t, f.model, before)
	})
}

// TestPredictSampleMatchesPredict pins the golden entry point to the GEMM
// tier's public API: per-sample inference through PredictSample must agree
// with Predict over the same data, and must allocate nothing once warmed
// and sealed.
func TestPredictSampleMatchesPredict(t *testing.T) {
	m := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Classes: 5, Seed: 21})
	key := keys.Generate(rng.New(22))
	sched := schedule.New(keys.KeyBits, 23)
	m.ApplyRawKey(key, sched)
	dev := keys.NewDevice("user", key)

	const n = 8
	x := tensor.New(n, 1, 16, 16)
	x.FillUniform(rng.New(24), -1, 1)

	batched, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batched.Predict(m, x)
	if err != nil {
		t.Fatal(err)
	}

	single, err := NewAccelerator(DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	feat := 16 * 16
	var view tensor.Tensor
	for i := 0; i < n; i++ {
		sample := tensor.ViewInto(&view, x.Data[i*feat:(i+1)*feat], 1, 16, 16)
		got, err := single.PredictSample(m, sample)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("sample %d: PredictSample %d != Predict %d", i, got, want[i])
		}
	}

	// After warmup the workspace seals and steady-state sampling is
	// allocation-free.
	single.Seal()
	sample := tensor.ViewInto(&view, x.Data[:feat], 1, 16, 16)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := single.PredictSample(m, sample); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PredictSample: %v allocs/run in steady state, want 0", allocs)
	}
	if single.WorkspaceBytes() == 0 {
		t.Error("warmed accelerator reports empty workspace")
	}
}
