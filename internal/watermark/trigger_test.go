package watermark

import (
	"math"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/dataset"
)

func triggerData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name: "fashion", TrainN: 400, TestN: 150, H: 16, W: 16, Seed: 170,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTriggerEmbedAndDetect: the blind-watermark round trip — train with
// the trigger hook under a data-parallel run (the hook rides the
// GradAugments bus, which runs serially on the master for any K), then
// prove ownership black-box. A fresh model must NOT be detected.
func TestTriggerEmbedAndDetect(t *testing.T) {
	ds := triggerData(t)
	m := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Seed: 171})
	ts, err := NewTriggerSet(m, TriggerConfig{N: 32, Strength: 1, Seed: 172})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TrainChecked(m, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, core.TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 173,
		Replicas: 2, GradShards: 4,
		GradAugments: []func() float64{ts.Hook(m)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalTestAcc(); acc < 0.7 {
		t.Fatalf("trigger-watermarked training failed: %.3f", acc)
	}
	ok, acc, chance := ts.Detected(m)
	if !ok {
		t.Fatalf("trigger watermark not detected after embedding (acc %.3f, chance %.3f)", acc, chance)
	}
	if p := ts.PValue(acc); p > 1e-3 {
		t.Fatalf("detected watermark is statistically weak (acc %.3f, p %.2g)", acc, p)
	}

	// Negative control: an independently trained model answers the trigger
	// queries near chance.
	other := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Seed: 199})
	if _, err := core.TrainChecked(other, ds.TrainX, ds.TrainY, nil, nil, core.TrainConfig{
		Epochs: 2, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 198,
	}); err != nil {
		t.Fatal(err)
	}
	if ok, acc, _ := ts.Detected(other); ok {
		t.Fatalf("unrelated model detected as trigger-watermarked (acc %.3f)", acc)
	}
}

// TestTriggerBitwiseAcrossK: the embedding run itself — task gradient plus
// trigger hook — must stay bitwise identical across replica counts, since
// the hook runs serially on the master after the data-parallel reduction.
func TestTriggerBitwiseAcrossK(t *testing.T) {
	ds := triggerData(t)
	run := func(k int) []uint64 {
		m := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: 16, InW: 16, Seed: 181})
		ts, err := NewTriggerSet(m, TriggerConfig{N: 20, Strength: 0.5, Seed: 182})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.TrainChecked(m, ds.TrainX, ds.TrainY, nil, nil, core.TrainConfig{
			Epochs: 2, BatchSize: 32, LR: 0.05, Momentum: 0.9, Seed: 183,
			Replicas: k, GradShards: 4,
			GradAugments: []func() float64{ts.Hook(m)},
		}); err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, p := range m.Net.Params() {
			for _, v := range p.Value.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
		return bits
	}
	want := run(1)
	for _, k := range []int{2, 4} {
		got := run(k)
		if len(got) != len(want) {
			t.Fatalf("K=%d parameter count mismatch", k)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("K=%d trigger-embedded weights diverge at scalar %d", k, i)
			}
		}
	}
}

// TestTriggerComposesWithProjection: both watermarking methods install at
// once — TrainEmbedded prepends the Uchida regularizer to a config that
// already carries the trigger-set hook — and both must be recoverable from
// the one trained model.
func TestTriggerComposesWithProjection(t *testing.T) {
	ds := triggerData(t)
	m := core.MustModel(core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Seed: 191})
	wm, err := New(m, Config{Bits: 64, Strength: 0.1, Seed: 192, ParamIndex: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTriggerSet(m, TriggerConfig{N: 32, Seed: 193})
	if err != nil {
		t.Fatal(err)
	}
	TrainEmbedded(m, wm, ds.TrainX, ds.TrainY, ds.TestX, ds.TestY, core.TrainConfig{
		Epochs: 8, BatchSize: 32, LR: 0.02, Momentum: 0.9, Seed: 194,
		GradAugments: []func() float64{ts.Hook(m)},
	})
	if ok, ber, err := wm.Detected(m); err != nil || !ok {
		t.Fatalf("projection watermark lost under composition (BER %.3f, err %v)", ber, err)
	}
	if ok, acc, _ := ts.Detected(m); !ok {
		t.Fatalf("trigger watermark lost under composition (acc %.3f)", acc)
	}
}

func TestTriggerConfigValidation(t *testing.T) {
	m := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: 8, InW: 8, Seed: 1})
	if _, err := NewTriggerSet(m, TriggerConfig{N: 4}); err == nil {
		t.Fatal("trigger set smaller than the class count accepted")
	}
	ts, err := NewTriggerSet(m, TriggerConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	labels := ts.Labels()
	if len(labels) != 32 {
		t.Fatalf("default trigger size %d, want 32", len(labels))
	}
	// Round-robin base: every class appears.
	seen := make(map[int]bool)
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 10 {
		t.Fatalf("trigger labels cover %d classes, want 10", len(seen))
	}
	// The p-value bound behaves: chance accuracy is not evidence.
	if p := ts.PValue(0.1); p != 1 {
		t.Fatalf("chance-level accuracy has p %.3f, want 1", p)
	}
	if p := ts.PValue(1); p > 1e-9 {
		t.Fatalf("perfect trigger accuracy has p %.2g, want tiny", p)
	}
}
