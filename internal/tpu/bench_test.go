package tpu

import (
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
)

// BenchmarkAccumulatorFastVsGateLevel quantifies the simulation cost of
// the bit-accurate datapath relative to the arithmetic model.
func BenchmarkAccumulatorFastVsGateLevel(b *testing.B) {
	products := make([]int16, 1024)
	r := rng.New(1)
	for i := range products {
		products[i] = int16(r.Intn(65536) - 32768)
	}
	b.Run("fast", func(b *testing.B) {
		u := Accumulator{KeyBit: 1}
		for i := 0; i < b.N; i++ {
			u.AddProduct(products[i%len(products)])
		}
	})
	b.Run("gate-level", func(b *testing.B) {
		u := Accumulator{KeyBit: 1, GateLevel: true}
		for i := 0; i < b.N; i++ {
			u.AddProduct(products[i%len(products)])
		}
	})
}

// BenchmarkMMULockedMatMul measures throughput of the simulated MMU with
// and without key-locking active.
func BenchmarkMMULockedMatMul(b *testing.B) {
	const M, K, P = 64, 128, 64
	r := rng.New(2)
	w := make([]int8, M*K)
	x := make([]int8, K*P)
	for i := range w {
		w[i] = int8(r.Intn(255) - 127)
	}
	for i := range x {
		x[i] = int8(r.Intn(255) - 127)
	}
	cols := make([]int, M*P)
	for i := range cols {
		cols[i] = i % keys.KeyBits
	}
	dev := keys.NewDevice("bench", keys.Generate(rng.New(3)))
	b.Run("unlocked", func(b *testing.B) {
		m, _ := NewMMU(DefaultConfig(), nil)
		for i := 0; i < b.N; i++ {
			m.MatMulLocked(w, M, K, x, P, nil, nil)
		}
	})
	b.Run("locked", func(b *testing.B) {
		m, _ := NewMMU(DefaultConfig(), dev)
		for i := 0; i < b.N; i++ {
			m.MatMulLocked(w, M, K, x, P, nil, cols)
		}
	})
}

func BenchmarkQuantize(b *testing.B) {
	t := tensor.New(4096)
	t.FillNorm(rng.New(4), 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantize(t)
	}
}

// BenchmarkPredictBatch times the batched tier per sample at batch 8 on the
// two served architectures (16×16 inputs, 10 classes, hpnn-xor key) and
// reports the sealed accelerator's workspace, weight codes included — one
// serving shard's memory. Run with -cpu 1 for the one-thread figure.
func BenchmarkPredictBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"CNN1", core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Classes: 10, Seed: 5}},
		{"ResNet18x0.25", core.Config{Arch: core.ResNet18, InC: 1, InH: 16, InW: 16, Classes: 10, WidthScale: 0.25, Seed: 5}},
	} {
		b.Run(c.name, func(b *testing.B) {
			const n = 8
			m := core.MustModel(c.cfg)
			key := keys.Generate(rng.New(6))
			sched := schedule.New(keys.KeyBits, 7)
			m.ApplyRawKey(key, sched)
			a, err := NewAccelerator(DefaultConfig(), keys.NewDevice("bench", key), sched)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(n, 1, 16, 16)
			x.FillUniform(rng.New(8), -1, 1)
			preds := make([]int, n)
			if err := a.PredictBatchInto(preds, m, x); err != nil {
				b.Fatal(err)
			}
			a.Seal()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.PredictBatchInto(preds, m, x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e3, "µs/sample")
			b.ReportMetric(float64(a.WorkspaceBytes()), "ws-bytes")
		})
	}
}
