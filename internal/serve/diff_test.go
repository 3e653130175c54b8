package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

// TestServeDifferentialRandomModels is the property-style half of the
// differential harness: for every registered lock scheme and a spread of
// architectures, every class served through the shards must equal the
// accelerator bit-for-bit, against two oracles — the golden MMU path
// (tpu.PredictSample) and one whole-input call on the GEMM tier
// (tpu.Predict). The quantized path is fully
// deterministic, so any divergence — however the shards slice the
// traffic into partial batches — is a bug, not noise. Run
// under -race.
func TestServeDifferentialRandomModels(t *testing.T) {
	cases := []struct {
		arch core.Arch
		hw   int
		seed uint64
	}{
		{core.MLP, 8, 500},
		{core.MLP, 12, 510},
		{core.CNN1, 16, 520},
	}
	for si, schemeName := range lockscheme.Names() {
		for ci, tc := range cases {
			const n = 24
			f := newSchemeFixture(t, schemeName, tc.arch, tc.hw, n, tc.seed+uint64(1000*si+100*ci))
			scheme, err := lockscheme.Get(schemeName)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tpu.NewAcceleratorFor(scheme, tpu.DefaultConfig(), f.dev, f.sched)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := ref.Predict(f.model, f.x)
			if err != nil {
				t.Fatal(err)
			}
			oracles := []struct {
				name string
				want []int
			}{{"golden", f.want}, {"batched", batched}}
			for _, o := range oracles {
				t.Run(fmt.Sprintf("%s/%v-%d/%s", schemeName, tc.arch, tc.hw, o.name), func(t *testing.T) {
					s := f.server(t, Config{
						Shards: 3, MaxBatch: 4, QueueDepth: 256,
					})
					defer s.Close()

					// Concurrent submission: shard assignment and batch
					// boundaries are scheduler-dependent, the answers must
					// not be.
					var wg sync.WaitGroup
					got := make([]int, n)
					errs := make([]error, n)
					for i := 0; i < n; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							got[i], errs[i] = s.Predict(context.Background(), f.sample(i))
						}(i)
					}
					wg.Wait()
					for i := 0; i < n; i++ {
						if errs[i] != nil {
							t.Fatalf("sample %d: %v", i, errs[i])
						}
						if got[i] != o.want[i] {
							t.Fatalf("sample %d: served class %d, %s oracle %d",
								i, got[i], o.name, o.want[i])
						}
					}
				})
			}
		}
	}
}

// TestServeDifferentialTrainedModel is the end-to-end half: a trained
// locked CNN1 served through the shards must (a) agree bit-for-bit with
// the golden PredictSample path on every test sample and (b) stay
// within quantization tolerance of the float core path — the same bound
// the accelerator itself is held to in internal/tpu.
func TestServeDifferentialTrainedModel(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Name: "fashion", TrainN: 300, TestN: 120, H: 16, W: 16, Seed: 530,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Seed: 531})
	key := keys.Generate(rng.New(532))
	sched := schedule.New(keys.KeyBits, 533)
	m.ApplyRawKey(key, sched)
	core.Train(m, ds.TrainX, ds.TrainY, nil, nil, core.TrainConfig{
		Epochs: 6, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 534,
	})
	dev := keys.NewDevice("user", key)

	floatAcc := m.Accuracy(ds.TestX, ds.TestY, 64)
	if floatAcc < 0.55 {
		t.Fatalf("float reference failed to train (%.3f)", floatAcc)
	}

	ref, err := tpu.NewAccelerator(tpu.DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenPredict(t, ref, m, ds.TestX)

	s, err := New(m, tpu.DefaultConfig(), dev, sched, Config{
		Shards: 2, MaxBatch: 8, QueueDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.PredictBatch(context.Background(), ds.TestX)
	if err != nil {
		t.Fatal(err)
	}

	servedCorrect := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("test sample %d: served class %d, golden %d", i, got[i], want[i])
		}
		if got[i] == ds.TestY[i] {
			servedCorrect++
		}
	}
	servedAcc := float64(servedCorrect) / float64(len(ds.TestY))
	if servedAcc < floatAcc-0.1 {
		t.Fatalf("served accuracy %.3f too far below float reference %.3f", servedAcc, floatAcc)
	}

	// The served traffic really ran on locked hardware: key-conditioned
	// negations happened on every shard's MMU.
	if s.HardwareStats().LockedOutputs == 0 {
		t.Fatal("served inference reported no locked outputs")
	}
}

// TestServeDifferentialCommodityHardware serves the same trained weights
// with no key device (the paper's piracy scenario) and checks the service
// faithfully reproduces the collapsed golden behaviour — the serving
// layer must not accidentally "fix" what the missing key breaks.
func TestServeDifferentialCommodityHardware(t *testing.T) {
	const n = 24
	f := newFixture(t, core.MLP, 8, n, 540)

	commodity, err := tpu.NewAccelerator(tpu.DefaultConfig(), nil, f.sched)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenPredict(t, commodity, f.model, f.x)

	s, err := New(f.model, tpu.DefaultConfig(), nil, f.sched, Config{Shards: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.PredictBatch(context.Background(), f.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: no-key served class %d, no-key golden %d", i, got[i], want[i])
		}
	}
	if s.HardwareStats().LockedOutputs != 0 {
		t.Fatal("commodity hardware reported locked outputs")
	}
	x := tensor.New(1, 8, 8)
	if _, err := s.Predict(context.Background(), x); err != nil {
		t.Fatalf("zero sample on commodity hardware: %v", err)
	}
}
