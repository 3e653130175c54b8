package tpu

import (
	"sync"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// TestServeConcurrentAccelerators is the hardware half of the serving
// layer's differential harness: several accelerators compiled from ONE
// shared model (the shard topology of internal/serve) must run concurrently
// without data races — plan cloning gives every plan its own vector-unit
// layers and scratch — and produce predictions identical to the golden
// PredictSample reference. Run under -race by scripts/check.sh.
func TestServeConcurrentAccelerators(t *testing.T) {
	for _, tc := range []struct {
		arch core.Arch
		hw   int
	}{{core.MLP, 12}, {core.CNN1, 16}} {
		arch := tc.arch
		m := core.MustModel(core.Config{Arch: arch, InC: 1, InH: tc.hw, InW: tc.hw, Classes: 6, Seed: 11})
		key := keys.Generate(rng.New(12))
		sched := schedule.New(keys.KeyBits, 13)
		m.ApplyRawKey(key, sched)
		dev := keys.NewDevice("user", key)

		const n = 24
		x := tensor.New(n, 1, tc.hw, tc.hw)
		x.FillUniform(rng.New(14), -1, 1)

		ref, err := NewAccelerator(DefaultConfig(), dev, sched)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenPredict(t, ref, m, x)

		const shards = 4
		got := make([][]int, shards)
		var wg sync.WaitGroup
		errs := make([]error, shards)
		for s := 0; s < shards; s++ {
			acc, err := NewAccelerator(DefaultConfig(), dev, sched)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.Compile(m); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(s int, acc *Accelerator) {
				defer wg.Done()
				got[s], errs[s] = acc.Predict(m, x)
			}(s, acc)
		}
		wg.Wait()
		for s := 0; s < shards; s++ {
			if errs[s] != nil {
				t.Fatalf("%s shard %d: %v", arch, s, errs[s])
			}
			for i := range want {
				if got[s][i] != want[i] {
					t.Fatalf("%s shard %d sample %d: got class %d, golden %d",
						arch, s, i, got[s][i], want[i])
				}
			}
		}
	}
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
