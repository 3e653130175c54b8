package serve

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tpu"
)

// benchRegistryConfig sizes tenants like benchServer sizes a single server.
func benchRegistryConfig() RegistryConfig {
	return RegistryConfig{Tenant: Config{
		Shards:     runtime.GOMAXPROCS(0),
		MaxBatch:   8,
		QueueDepth: 1024,
	}}
}

// BenchmarkRegistryMultiModel measures per-model throughput through a
// multi-tenant registry hosting one warmed tenant per lock scheme — the
// routed counterpart of BenchmarkServeThroughput. The gap to the
// single-model number is the routing layer's cost.
func BenchmarkRegistryMultiModel(b *testing.B) {
	const batch = 8
	reg := NewRegistry(tpu.DefaultConfig(), benchRegistryConfig())
	defer reg.Close()
	fixtures := make(map[string]*testFixture)
	for si, schemeName := range lockscheme.Names() {
		f := newSchemeFixture(b, schemeName, core.CNN1, 16, batch, 4000+uint64(si))
		fixtures[schemeName] = f
		if err := reg.Register(schemeName, blobFor(b, f.model), f.dev, f.sched); err != nil {
			b.Fatal(err)
		}
		if err := reg.Warm(schemeName); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, schemeName := range lockscheme.Names() {
		f := fixtures[schemeName]
		b.Run("model="+schemeName, func(b *testing.B) {
			if _, err := reg.PredictBatch(ctx, schemeName, f.x); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.PredictBatch(ctx, schemeName, f.x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkRegistryColdCompile measures the lazy-residency cost an evicted
// tenant pays on its next hit — blob decode, one program compile, each
// shard's state sized and sealed — for a CNN1 and a ResNet-18 ×0.25
// tenant. ns/op is the cold-start latency the LRU trades memory against;
// tenant-bytes is the resident tenant's accelerator memory, the number the
// registry's budget counts.
func BenchmarkRegistryColdCompile(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"CNN1", core.Config{Arch: core.CNN1, InC: 1, InH: 16, InW: 16, Classes: 4, Seed: 4100}},
		{"ResNet18x0.25", core.Config{Arch: core.ResNet18, InC: 1, InH: 16, InW: 16, Classes: 4, WidthScale: 0.25, Seed: 4100}},
	} {
		b.Run("model="+c.name, func(b *testing.B) {
			m := core.MustModel(c.cfg)
			key := keys.Generate(rng.New(4101))
			sched := schedule.New(keys.KeyBits, 4102)
			m.ApplyRawKey(key, sched)
			reg := NewRegistry(tpu.DefaultConfig(), benchRegistryConfig())
			defer reg.Close()
			if err := reg.Register("m", blobFor(b, m), keys.NewDevice("owner", key), sched); err != nil {
				b.Fatal(err)
			}
			t, err := reg.tenant("m")
			if err != nil {
				b.Fatal(err)
			}
			bytes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := reg.Warm("m"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				bytes = reg.WorkspaceBytes()
				t.evict()
				b.StartTimer()
			}
			b.ReportMetric(float64(bytes), "tenant-bytes")
		})
	}
}

// BenchmarkRegistrySwapBlackout measures what a hot-swap costs the traffic
// riding through it: loader goroutines stream single-sample requests while
// every benchmark iteration Deploys the tenant's other version. ns/op is
// the full Deploy (side compile + atomic flip + old-version drain);
// blackout-med-ns is the median over deploys of the worst latency among
// the requests that overlap each deploy — how long a request typically
// stalls on a flip. A maximum over the whole run would grow with b.N, so
// a faster Deploy, which runs more deploys in a time-bound run, would read
// worse. failed-req must stay 0: a hot-swap drops nothing (the acceptance
// bar).
func BenchmarkRegistrySwapBlackout(b *testing.B) {
	const n = 8
	sf := newSwapFixture(b, n, 4200)
	reg := NewRegistry(tpu.DefaultConfig(), benchRegistryConfig())
	defer reg.Close()
	if err := reg.Register("m", sf.blob1, sf.dev, sf.sched); err != nil {
		b.Fatal(err)
	}
	if err := reg.Warm("m"); err != nil {
		b.Fatal(err)
	}

	// Every request and every deploy is a [start, end) interval on one
	// monotonic clock; each loader's requests, like the deploys, are in
	// time order.
	base := time.Now()
	stop := make(chan struct{})
	var failed atomic.Uint64
	var wg sync.WaitGroup
	loaders := runtime.GOMAXPROCS(0)
	reqs := make([][]span, loaders)
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(5000 + g))
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := int(r.Uint64() % n)
				t0 := time.Since(base)
				_, err := reg.Predict(ctx, "m", sf.sample(idx))
				reqs[g] = append(reqs[g], span{t0, time.Since(base)})
				if err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}

	blobs := [][]byte{sf.blob2, sf.blob1}
	deploys := make([]span, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deploys[i].start = time.Since(base)
		if err := reg.Deploy("m", blobs[i%2]); err != nil {
			b.Fatal(err)
		}
		deploys[i].end = time.Since(base)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(medianWorstOverlap(deploys, reqs)), "blackout-med-ns")
	b.ReportMetric(float64(failed.Load()), "failed-req")
	if failed.Load() != 0 {
		b.Fatalf("%d requests failed across %d hot-swaps, want 0", failed.Load(), b.N)
	}
}

// span is one request or deploy on the benchmark's clock.
type span struct{ start, end time.Duration }

// medianWorstOverlap returns the median, over the deploys that any request
// overlaps, of the longest request overlapping that deploy. Each loader's
// requests are walked once against the time-ordered deploys.
func medianWorstOverlap(deploys []span, loaders [][]span) time.Duration {
	worst := make([]time.Duration, len(deploys))
	for _, reqs := range loaders {
		d := 0
		for _, r := range reqs {
			for d < len(deploys) && deploys[d].end <= r.start {
				d++
			}
			for k := d; k < len(deploys) && deploys[k].start < r.end; k++ {
				worst[k] = max(worst[k], r.end-r.start)
			}
		}
	}
	var hit []time.Duration
	for _, w := range worst {
		if w > 0 {
			hit = append(hit, w)
		}
	}
	if len(hit) == 0 {
		return 0
	}
	slices.Sort(hit)
	return hit[len(hit)/2]
}
