package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hpnn/internal/core"
	"hpnn/internal/tpu"
)

// benchServer builds a warmed server sized for the machine: one shard per
// available core (capped at 8), MaxBatch 8 — the configuration the ISSUE's
// throughput criterion is stated against.
func benchServer(b *testing.B, f *testFixture) *Server {
	b.Helper()
	return f.server(b, Config{
		Shards:     runtime.GOMAXPROCS(0),
		MaxBatch:   8,
		MaxWait:    200 * time.Microsecond,
		QueueDepth: 1024,
	})
}

// BenchmarkServeThroughput submits batch-8 requests through PredictBatch:
// a full batch flushes the moment its last sample arrives, so the batcher
// window never idles and the shards stay busy. Compare samples/sec against
// BenchmarkServeSerializedLoop — the acceptance bar is ≥2× at batch 8 on a
// ≥4-core machine, where shard parallelism compounds with window
// amortization (see EXPERIMENTS.md for measured single-core numbers).
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
// request at a time through the same server. Every lone request sits out
// the full MaxWait window before its batch of one is dispatched — the
// latency cost of micro-batching that PredictBatch amortizes away.
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
// one warmed accelerator, no batcher, no channels. The gap between this
// and BenchmarkServeThroughput is the serving layer's overhead; the gap to
// BenchmarkServeSerializedLoop is the batcher window.
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
