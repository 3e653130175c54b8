package serve

import (
	"context"
	"runtime"
	"testing"

	"hpnn/internal/core"
	"hpnn/internal/tpu"
)

// benchServer builds a warmed server sized for the machine: one shard per
// available core (capped at 8), MaxBatch 8 — the configuration the
// EXPERIMENTS.md serving numbers are stated against.
func benchServer(b *testing.B, f *testFixture) *Server {
	b.Helper()
	return f.server(b, Config{
		Shards:     runtime.GOMAXPROCS(0),
		MaxBatch:   8,
		QueueDepth: 1024,
	})
}

// BenchmarkServeThroughput submits batch-8 requests through PredictBatch:
// the whole batch is admitted under one lock, so it leaves as one batch of
// 8 and pays one shard wake-up and one dispatch for eight samples. Compare
// samples/sec against BenchmarkServeSerializedLoop; the gap is what
// batching amortizes (see EXPERIMENTS.md).
func BenchmarkServeThroughput(b *testing.B) {
	const batch = 8
	f := newFixture(b, core.MLP, 8, batch, 700)
	s := benchServer(b, f)
	defer s.Close()
	ctx := context.Background()
	if _, err := s.PredictBatch(ctx, f.x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PredictBatch(ctx, f.x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkServeSerializedLoop is the contrast case: one outstanding
// request at a time through the same server, the in-package analogue of
// the benchmark's 400 rps phase, where requests rarely overlap. An idle
// shard takes each lone request the moment it is admitted, so this times
// one round trip: admission, the shard's wake-up, a batch of one, and the
// answer.
func BenchmarkServeSerializedLoop(b *testing.B) {
	f := newFixture(b, core.MLP, 8, 1, 700)
	s := benchServer(b, f)
	defer s.Close()
	ctx := context.Background()
	x := f.sample(0)
	if _, err := s.Predict(ctx, x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(ctx, x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkDirectAccelerator is the no-service floor: raw PredictSample on
// one warmed accelerator, no queue, no channels. The gap to
// BenchmarkServeSerializedLoop is the serving layer's per-request cost:
// admission, the shard's wake-up and the answer's hand-off.
func BenchmarkDirectAccelerator(b *testing.B) {
	f := newFixture(b, core.MLP, 8, 1, 700)
	acc, err := tpu.NewAccelerator(tpu.DefaultConfig(), f.dev, f.sched)
	if err != nil {
		b.Fatal(err)
	}
	x := f.sample(0)
	if _, err := acc.PredictSample(f.model, x); err != nil {
		b.Fatal(err)
	}
	acc.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.PredictSample(f.model, x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}
