package modelio

import (
	"bytes"
	"io"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/nn"
	"hpnn/internal/train"
)

// BenchmarkCodec times the published-model codec (Save, Load) and the
// checkpoint codec (SaveCheckpoint, LoadCheckpoint, with one momentum slot
// per parameter) on a CNN1 16×16 and a ResNet-18 ×0.25 model, reporting
// allocations per call.
func BenchmarkCodec(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"CNN1", core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Classes: 10, Seed: 5}},
		{"ResNet18x0.25", core.Config{Arch: core.ResNet18, InC: 1, InH: 16, InW: 16, Classes: 10, WidthScale: 0.25, Seed: 5}},
	} {
		m := core.MustModel(c.cfg)
		st := train.State{Seed: 1, Schedule: "constant", Optimizer: nn.OptState{Kind: "sgd"}}
		for _, p := range m.Net.Params() {
			st.Optimizer.Slots = append(st.Optimizer.Slots, [][]float64{append([]float64(nil), p.Value.Data...)})
		}
		var blob, ckpt bytes.Buffer
		if err := Save(&blob, m); err != nil {
			b.Fatal(err)
		}
		if err := SaveCheckpoint(&ckpt, m, st); err != nil {
			b.Fatal(err)
		}
		run := func(name string, fn func() error) {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("Save", func() error { return Save(io.Discard, m) })
		run("Load", func() error {
			_, err := Load(bytes.NewReader(blob.Bytes()))
			return err
		})
		run("SaveCheckpoint", func() error { return SaveCheckpoint(io.Discard, m, st) })
		run("LoadCheckpoint", func() error {
			_, _, err := LoadCheckpoint(bytes.NewReader(ckpt.Bytes()))
			return err
		})
	}
}
