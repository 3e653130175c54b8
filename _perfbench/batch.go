package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hpnn/internal/rng"
	"hpnn/internal/serve"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

const (
	batchPool   = 64 // distinct samples; each has a golden answer
	batchSize   = 32 // samples per PredictBatch call: 4 micro-batches of 8
	batchSets   = 16 // distinct seeded batch compositions, cycled
	batchStarts = 5  // setup repetitions
)

// batchFixture is the ResNet-18 tenant, its inputs and the seeded batches.
type batchFixture struct {
	t       *tenant
	x       *tensor.Tensor
	batches []*tensor.Tensor
	members [][]int // sample indices of each batch
}

func newBatchFixture(r *run) (*batchFixture, error) {
	t, err := newTenant("resnet18", "hpnn-xor", resnet18, 121, 221)
	if err != nil {
		return nil, err
	}
	x, _, err := inputs(r.seed, batchPool)
	if err != nil {
		return nil, err
	}
	if err := t.computeOracle(x); err != nil {
		return nil, err
	}
	if err := checkOracle([]*tenant{t}); err != nil {
		return nil, err
	}
	f := &batchFixture{t: t, x: x}
	feat := x.Len() / batchPool
	pick := rng.New(phaseSeed(r.seed, 100))
	for b := 0; b < batchSets; b++ {
		bt := tensor.New(batchSize, 1, imgHW, imgHW)
		idx := make([]int, batchSize)
		for i := range idx {
			idx[i] = pick.Intn(batchPool)
			copy(bt.Data[i*feat:(i+1)*feat], x.Data[idx[i]*feat:(idx[i]+1)*feat])
		}
		f.batches = append(f.batches, bt)
		f.members = append(f.members, idx)
	}
	return f, nil
}

// wrong counts answers of batch b that differ from the golden oracle.
func (f *batchFixture) wrong(b int, preds []int) int {
	if len(preds) != batchSize {
		return batchSize
	}
	n := 0
	for i, s := range f.members[b] {
		if !f.t.accepts(s, preds[i]) {
			n++
		}
	}
	return n
}

// newRegistry builds the registry configuration hpnn-serve uses (default
// shards, batch size and window) with the ResNet-18 tenant.
func (f *batchFixture) newRegistry() (*serve.Registry, error) {
	reg := serve.NewRegistry(tpu.DefaultConfig(), serve.RegistryConfig{})
	if err := reg.Register(f.t.name, f.t.blobs[0], f.t.dev, f.t.sched); err != nil {
		return nil, err
	}
	return reg, nil
}

// measureBatchSetup times registry creation, model load, compile and
// warm-up up to the first correct batch, batchStarts times.
func measureBatchSetup(r *run, f *batchFixture, tr *tracer) (float64, error) {
	var times []float64
	failed := 0
	for i := 0; i < batchStarts; i++ {
		t0 := time.Now()
		reg, err := f.newRegistry()
		if err != nil {
			return 0, err
		}
		w := tr.open(0, -1, "registry.warm")
		err = reg.Warm(f.t.name)
		tr.close(w)
		var preds []int
		if err == nil {
			preds, err = reg.PredictBatch(context.Background(), f.t.name, f.batches[0])
		}
		d := time.Since(t0)
		reg.Close()
		if err != nil {
			return 0, err
		}
		if f.wrong(0, preds) > 0 {
			failed++
			continue
		}
		times = append(times, d.Seconds())
	}
	r.count("setup", batchStarts, failed)
	fmt.Printf("setup_s samples %v\n", times)
	return median(times), nil
}

// batchPhase runs callers closed-loop PredictBatch callers for dur and
// returns every successful call's latency in ms and the samples answered
// per second.
func batchPhase(r *run, f *batchFixture, reg *serve.Registry, name string, callers int, dur time.Duration, tr *tracer) ([]float64, float64) {
	var (
		mu       sync.Mutex
		lats     []float64
		attempts int
		wrong    int
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(end); k += callers {
				b := k % batchSets
				t0 := time.Now()
				sp := tr.open(uint64(k), -1, "registry.predict_batch")
				preds, err := reg.PredictBatch(context.Background(), f.t.name, f.batches[b])
				tr.close(sp)
				d := time.Since(t0)
				mu.Lock()
				attempts++
				if err != nil {
					wrong += batchSize
					if firstErr == nil {
						firstErr = err
					}
				} else {
					wrong += f.wrong(b, preds)
					lats = append(lats, ms(d))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rate := float64(len(lats)*batchSize) / time.Since(start).Seconds()
	r.count(name, attempts*batchSize, wrong)
	if firstErr != nil {
		r.problem("%s: PredictBatch: %v", name, firstErr)
	}
	sl := sortedCopy(lats)
	fmt.Printf("  %s (%d callers): %d calls, ms p50 %.2f p90 %.2f, %.1f samples/s\n",
		name, callers, len(lats), percentile(sl, 0.5), percentile(sl, 0.9), rate)
	return lats, rate
}

func batchResNet18(r *run) error {
	f, err := newBatchFixture(r)
	if err != nil {
		return err
	}
	setup, err := measureBatchSetup(r, f, nil)
	if err != nil {
		return err
	}
	reg, err := f.newRegistry()
	if err != nil {
		return err
	}
	defer reg.Close()
	if err := reg.Warm(f.t.name); err != nil {
		return err
	}
	batchPhase(r, f, reg, "warmup", 1, 300*time.Millisecond, nil)
	lo, loRate := batchPhase(r, f, reg, "lo", 1, r.budget(0.5), nil)
	hi, hiRate := batchPhase(r, f, reg, "hi", 2, r.budget(0.5), nil)
	shi := sortedCopy(hi)
	r.set("lat_p50_ms", median(lo), "ms")
	r.set("lat_p50_ms_hi", percentile(shi, 0.5), "ms")
	r.set("lat_p90_ms_hi", percentile(shi, 0.9), "ms")
	r.set("capacity_rps", hiRate, "1/s")
	r.set("samples_per_s", loRate, "1/s")
	r.set("setup_s", setup, "s")
	return nil
}
