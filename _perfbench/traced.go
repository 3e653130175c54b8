package main

// The traced runs. They replay a workload's inputs in this process with a
// span around every public call into a layer — the benchmark measures the
// layers from outside; nothing inside the program is instrumented — and
// report the per-layer metrics. Each traced run also repeats its main phase
// without spans, and reports the difference as the tracing overhead.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hpnn/internal/dataset"
	"hpnn/internal/modelio"
	"hpnn/internal/nn"
	"hpnn/internal/serve"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
	"hpnn/internal/train"
)

// cnn1Layers names CNN1's layers in forward order, for the nn.* metrics.
var cnn1Layers = []string{"0_conv", "1_lock", "2_relu", "3_maxpool", "4_conv", "5_lock", "6_relu", "7_maxpool", "8_flatten", "9_dense"}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer that does not run on a workload reads 0.
func perLayer() []metricName {
	out := []metricName{
		{"wire.decode_us", "us"}, {"wire.encode_us", "us"}, {"wire.req_bytes", "bytes"},
		{"serve.predict_p50_ms", "ms"}, {"serve.wait_ms", "ms"}, {"serve.mean_batch", "count"}, {"serve.shed", "count"},
		{"registry.deploy_ms", "ms"}, {"registry.blackout_ms", "ms"}, {"registry.cold_compile_ms", "ms"},
		{"registry.compiles", "count"}, {"registry.evictions", "count"}, {"registry.swaps", "count"}, {"registry.reroutes", "count"},
		{"modelio.load_ms", "ms"}, {"modelio.zoo.fetch_ms", "ms"},
		{"tpu.batch1_ms", "ms"}, {"tpu.batch8_ms", "ms"}, {"tpu.compile_ms", "ms"}, {"tpu.macs_per_sample", "count"},
		{"train.step_ms", "ms"}, {"train.loss_ms", "ms"}, {"train.opt_ms", "ms"},
	}
	for _, l := range cnn1Layers {
		out = append(out, metricName{"nn.fwd_ms." + l, "ms"})
	}
	for _, l := range cnn1Layers {
		out = append(out, metricName{"nn.bwd_ms." + l, "ms"})
	}
	return append(out,
		metricName{"gen.late_p50_ms", "ms"}, metricName{"gen.late_max_ms", "ms"},
		metricName{"trace.overhead_pct", "%"})
}

// initLayerMetrics sets every per-layer metric to 0 before a traced run
// fills in the layers it exercises.
func (r *run) initLayerMetrics() {
	for _, m := range perLayer() {
		r.set(m.name, 0, m.unit)
	}
}

// finishTrace writes the spans out and reports the per-name self times.
func (r *run) finishTrace(tr *tracer, part string) (map[string]*spanStat, error) {
	path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-%d%s.jsonl", r.workload, r.seed, part))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	st := selfTimes(tr.snapshot())
	fmt.Printf("trace: %d spans written to %s\n", len(tr.snapshot()), path)
	for _, name := range sortedKeys(st) {
		s := st[name]
		fmt.Printf("  span %-26s n %6d  total %9.3f ms  self %9.3f ms  p50 %8.4f ms\n",
			name, s.count, float64(s.total)/1e6, float64(s.self)/1e6, percentile(sortedCopy(s.durs), 0.5)/1e6)
	}
	return st, nil
}

// p50ms is the median duration of the named spans in ms (0 when none).
func p50ms(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil {
		return 0
	}
	return percentile(sortedCopy(s.durs), 0.5) / 1e6
}

func overheadPct(traced, plain float64) float64 { return 100 * (traced - plain) / plain }

// --- probes of single layers -------------------------------------------------

// tpuProbe times the batched tier directly: compile on fresh accelerators,
// and PredictBatchInto at batch 1 and 8 on a compiled one; the MAC count
// per sample is exact, from tpu.Stats.
type tpuTimes struct{ batch1, batch8, compile, macs float64 }

func tpuProbe(t *tenant, x *tensor.Tensor, reps1, reps8 int, tr *tracer) (tpuTimes, error) {
	m := t.models[0]
	for i := 0; i < 3; i++ {
		acc, err := tpu.NewAcceleratorFor(t.scheme, tpu.DefaultConfig(), t.dev, t.sched)
		if err != nil {
			return tpuTimes{}, err
		}
		sp := tr.open(0, -1, "tpu.compile")
		err = acc.Compile(m)
		tr.close(sp)
		if err != nil {
			return tpuTimes{}, err
		}
	}
	acc, err := tpu.NewAcceleratorFor(t.scheme, tpu.DefaultConfig(), t.dev, t.sched)
	if err != nil {
		return tpuTimes{}, err
	}
	feat := x.Len() / x.Shape[0]
	b1 := tensor.FromSlice(x.Data[:feat], 1, 1, imgHW, imgHW)
	b8 := tensor.FromSlice(x.Data[:8*feat], 8, 1, imgHW, imgHW)
	preds := make([]int, 8)
	if err := acc.PredictBatchInto(preds, m, b8); err != nil { // compile and size buffers
		return tpuTimes{}, err
	}
	for i := 0; i < reps1; i++ {
		sp := tr.open(0, -1, "tpu.batch1")
		err := acc.PredictBatchInto(preds, m, b1)
		tr.close(sp)
		if err != nil {
			return tpuTimes{}, err
		}
	}
	acc.ResetStats()
	for i := 0; i < reps8; i++ {
		sp := tr.open(0, -1, "tpu.batch8")
		err := acc.PredictBatchInto(preds, m, b8)
		tr.close(sp)
		if err != nil {
			return tpuTimes{}, err
		}
	}
	st := tr.snapshot()
	ss := selfTimes(st)
	return tpuTimes{
		batch1:  p50ms(ss, "tpu.batch1"),
		batch8:  p50ms(ss, "tpu.batch8"),
		compile: p50ms(ss, "tpu.compile"),
		macs:    float64(acc.Stats().MACs) / float64(8*reps8),
	}, nil
}

// at estimates the tpu time of one micro-batch of b samples by linear
// interpolation between the batch-1 and batch-8 measurements.
func (t tpuTimes) at(b float64) float64 { return t.batch1 + (b-1)*(t.batch8-t.batch1)/7 }

func (r *run) setTPU(t tpuTimes) {
	r.set("tpu.batch1_ms", t.batch1, "ms")
	r.set("tpu.batch8_ms", t.batch8, "ms")
	r.set("tpu.compile_ms", t.compile, "ms")
	r.set("tpu.macs_per_sample", t.macs, "count")
}

// loadProbe times modelio.Load of a published blob.
func loadProbe(blob []byte, reps int, tr *tracer) error {
	for i := 0; i < reps; i++ {
		sp := tr.open(0, -1, "modelio.load")
		_, err := modelio.Load(bytes.NewReader(blob))
		tr.close(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// coldCompileProbe times Registry.Warm of a freshly registered tenant: the
// lazy compile-and-seal an evicted tenant pays on its next hit.
func coldCompileProbe(t *tenant, reps int, tr *tracer) error {
	for i := 0; i < reps; i++ {
		reg := serve.NewRegistry(tpu.DefaultConfig(), serve.RegistryConfig{})
		if err := reg.Register(t.name, t.blobs[0], t.dev, t.sched); err != nil {
			return err
		}
		sp := tr.open(0, -1, "registry.warm")
		err := reg.Warm(t.name)
		tr.close(sp)
		reg.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// setServeStats reports the tenants' batching and shedding totals.
func (r *run) setServeStats(infos []serve.TenantInfo, c serve.RegistryCounters) float64 {
	var completed, batches, shed uint64
	for _, in := range infos {
		completed += in.Stats.Completed
		batches += in.Stats.Batches
		shed += in.Stats.Overloaded
	}
	mean := 0.0
	if batches > 0 {
		mean = float64(completed) / float64(batches)
	}
	r.set("serve.mean_batch", mean, "count")
	r.set("serve.shed", float64(shed), "count")
	r.set("registry.compiles", float64(c.Compiles), "count")
	r.set("registry.evictions", float64(c.Evictions), "count")
	r.set("registry.swaps", float64(c.Swaps), "count")
	r.set("registry.reroutes", float64(c.Reroutes), "count")
	return mean
}

// --- serving workloads ------------------------------------------------------

// inproc is an in-process copy of hpnn-serve's connection handling over the
// same registry API: per connection, DecodeRequestModel → Registry.Predict
// → EncodeResponse, each under a span sharing the request's ID. It reads
// through a buffer so the decode span starts once a frame has arrived
// instead of covering the idle wait for it.
type inproc struct {
	ln    net.Listener
	reg   *serve.Registry
	tr    *tracer
	seq   *atomic.Uint64
	wg    sync.WaitGroup
	conns sync.WaitGroup
}

func startInproc(reg *serve.Registry, tr *tracer, seq *atomic.Uint64) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inproc{ln: ln, reg: reg, tr: tr, seq: seq}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			go func() {
				defer p.conns.Done()
				p.handle(conn)
			}()
		}
	}()
	return p, nil
}

func (p *inproc) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	ctx := context.Background()
	for {
		if _, err := br.Peek(4); err != nil {
			return
		}
		id := p.seq.Add(1)
		root := p.tr.open(id, -1, "request")
		sp := p.tr.open(id, root, "wire.decode")
		x, model, err := serve.DecodeRequestModel(br)
		p.tr.close(sp)
		if err != nil {
			p.tr.close(root)
			return
		}
		sp = p.tr.open(id, root, "registry.predict")
		class, err := p.reg.Predict(ctx, model, x)
		p.tr.close(sp)
		sp = p.tr.open(id, root, "wire.encode")
		err = serve.EncodeResponse(conn, class, err)
		p.tr.close(sp)
		p.tr.close(root)
		if err != nil {
			return
		}
	}
}

// stop closes the listener and waits for the accept loop and every
// connection handler (clients close their connections after each phase).
func (p *inproc) stop() {
	_ = p.ln.Close()
	p.wg.Wait()
	p.conns.Wait()
}

// watchInproc is hpnn-serve's zoo watch loop over the same client API:
// conditional fetches by ETag, Deploy on change, each under a span.
func watchInproc(reg *serve.Registry, url string, every time.Duration, tr *tracer) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	client := modelio.NewClient(url)
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
			}
			recs, err := client.ListRecords()
			if err != nil {
				continue
			}
			for _, rec := range recs {
				sp := tr.open(0, -1, "modelio.zoo.poll")
				blob, etag, err := client.FetchBlob(rec.Name, reg.ETag(rec.Name))
				tr.close(sp)
				if err != nil {
					continue // errors.Is(err, modelio.ErrNotModified): unchanged
				}
				tr.rename(sp, "modelio.zoo.fetch")
				sp = tr.open(0, -1, "registry.deploy")
				err = reg.Deploy(rec.Name, blob)
				tr.close(sp)
				if err == nil {
					reg.SetETag(rec.Name, etag)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// blackout is the longest Predict span that overlaps any Deploy span: the
// worst stall a request saw across hot-swaps.
func blackout(spans []span) float64 {
	var deploys [][2]int64
	for _, s := range spans {
		if s.Name == "registry.deploy" {
			deploys = append(deploys, [2]int64{s.Start, s.End})
		}
	}
	worst := int64(0)
	for _, s := range spans {
		if s.Name != "registry.predict" {
			continue
		}
		for _, d := range deploys {
			if s.Start < d[1] && d[0] < s.End {
				if s.End-s.Start > worst {
					worst = s.End - s.Start
				}
				break
			}
		}
	}
	return float64(worst) / 1e6
}

func servingTraced(r *run, f *servingFixture) error {
	r.initLayerMetrics()
	tr := newTracer()
	t0 := f.tenants[0]
	if err := coldCompileProbe(t0, 5, tr); err != nil {
		return err
	}
	if err := loadProbe(t0.blobs[0], 20, tr); err != nil {
		return err
	}
	tt, err := tpuProbe(t0, f.x, 200, 100, tr)
	if err != nil {
		return err
	}
	r.setTPU(tt)

	reg := serve.NewRegistry(tpu.DefaultConfig(), serve.RegistryConfig{
		MaxWorkspaceBytes: f.budget, DefaultModel: t0.name,
	})
	for _, t := range f.tenants {
		// Zoo tenants register from the zoo with its ETag, as hpnn-serve
		// does, so the watcher deploys only real republishes.
		blob, etag := t.blobs[0], ""
		if f.zoo != nil {
			if blob, etag, err = modelio.NewClient(f.zoo.url).FetchBlob(t.name, ""); err != nil {
				return err
			}
		}
		if err := reg.Register(t.name, blob, t.dev, t.sched); err != nil {
			return err
		}
		if etag != "" {
			reg.SetETag(t.name, etag)
		}
	}
	if err := reg.Warm(t0.name); err != nil {
		return err
	}
	var seq atomic.Uint64
	plain, err := startInproc(reg, nil, &seq)
	if err != nil {
		return err
	}
	traced, err := startInproc(reg, tr, &seq)
	if err != nil {
		plain.stop()
		return err
	}
	var stopSwaps func() int
	stopWatch := func() {}
	if f.zoo != nil {
		stopSwaps = republisher(f.zoo.zoo, f.tenants, swapEvery)
		stopWatch = watchInproc(reg, f.zoo.url, pollEvery, tr)
	}
	var loU, loT, hiT summary
	_, err = f.runPhase(r, "warmup", 0, plain.ln.Addr().String(), loRate, 300*time.Millisecond)
	if err == nil {
		loU, err = f.runPhase(r, "lo-untraced", 1, plain.ln.Addr().String(), loRate, r.budget(0.3))
	}
	if err == nil {
		loT, err = f.runPhase(r, "lo-traced", 1, traced.ln.Addr().String(), loRate, r.budget(0.3))
	}
	if err == nil {
		hiT, err = f.runPhase(r, "hi-traced", 2, traced.ln.Addr().String(), hiRate, r.budget(0.3))
	}
	if stopSwaps != nil {
		fmt.Printf("republished %d tenant versions\n", stopSwaps())
	}
	stopWatch()
	plain.stop()
	traced.stop()
	counters := reg.Counters()
	infos := reg.Close()
	if err != nil {
		return err
	}

	st, err := r.finishTrace(tr, "")
	if err != nil {
		return err
	}
	r.set("wire.decode_us", 1e3*p50ms(st, "wire.decode"), "us")
	r.set("wire.encode_us", 1e3*p50ms(st, "wire.encode"), "us")
	r.set("wire.req_bytes", float64(len(f.fr[0][0])), "bytes")
	predict := p50ms(st, "registry.predict")
	r.set("serve.predict_p50_ms", predict, "ms")
	mean := r.setServeStats(infos, counters)
	r.set("serve.wait_ms", predict-tt.at(mean), "ms")
	r.set("registry.deploy_ms", p50ms(st, "registry.deploy"), "ms")
	r.set("registry.blackout_ms", blackout(tr.snapshot()), "ms")
	r.set("registry.cold_compile_ms", p50ms(st, "registry.warm"), "ms")
	r.set("modelio.load_ms", p50ms(st, "modelio.load"), "ms")
	r.set("modelio.zoo.fetch_ms", p50ms(st, "modelio.zoo.fetch"), "ms")
	r.set("gen.late_p50_ms", hiT.lateP50, "ms")
	r.set("gen.late_max_ms", math.Max(loT.lateMax, hiT.lateMax), "ms")
	r.set("trace.overhead_pct", overheadPct(loT.p50, loU.p50), "%")
	fmt.Printf("tracing overhead: lo p50 %.4f ms traced vs %.4f ms untraced\n", loT.p50, loU.p50)
	return nil
}

// wireCNN1Traced also runs the training probe: train_cnn1 is not a gated
// workload (see README.md), so the train.* and nn.* layers of the same
// CNN1 architecture are measured here, where every gated run reports them.
// The tracing overhead stays the serving one.
func wireCNN1Traced(r *run) error {
	f, err := newWireFixture(r)
	if err != nil {
		return err
	}
	if err := servingTraced(r, f); err != nil {
		return err
	}
	_, _, err = trainProbe(r, 0.1)
	return err
}

func zooSwapTraced(r *run) error {
	f, err := newZooFixture(r)
	if err != nil {
		return err
	}
	defer f.zoo.stop()
	return servingTraced(r, f)
}

// --- batched inference ---------------------------------------------------------

func batchResNet18Traced(r *run) error {
	r.initLayerMetrics()
	f, err := newBatchFixture(r)
	if err != nil {
		return err
	}
	tr := newTracer()
	if _, err := measureBatchSetup(r, f, tr); err != nil {
		return err
	}
	if err := loadProbe(f.t.blobs[0], 10, tr); err != nil {
		return err
	}
	tt, err := tpuProbe(f.t, f.x, 10, 5, tr)
	if err != nil {
		return err
	}
	r.setTPU(tt)
	reg, err := f.newRegistry()
	if err != nil {
		return err
	}
	if err := reg.Warm(f.t.name); err != nil {
		reg.Close()
		return err
	}
	plain, _ := batchPhase(r, f, reg, "lo-untraced", 1, r.budget(0.3), nil)
	traced, _ := batchPhase(r, f, reg, "lo-traced", 1, r.budget(0.3), tr)
	counters := reg.Counters()
	infos := reg.Close()
	st, err := r.finishTrace(tr, "")
	if err != nil {
		return err
	}
	predict := p50ms(st, "registry.predict_batch")
	r.set("serve.predict_p50_ms", predict, "ms")
	mean := r.setServeStats(infos, counters)
	// Each shard runs its share of the call's micro-batches back to back.
	perShard := math.Ceil(batchSize / mean / float64(conns))
	r.set("serve.wait_ms", predict-perShard*tt.at(mean), "ms")
	r.set("registry.cold_compile_ms", p50ms(st, "registry.warm"), "ms")
	r.set("modelio.load_ms", p50ms(st, "modelio.load"), "ms")
	r.set("trace.overhead_pct", overheadPct(median(traced), median(plain)), "%")
	return nil
}

// --- training ----------------------------------------------------------------

// layerStep runs one sequential training step layer by layer, with a span
// around each layer's Forward and Backward, the loss, and the clipped
// optimizer update.
type layerStep struct {
	net     *nn.Network
	opt     nn.Optimizer
	loss    nn.SoftmaxCrossEntropy
	gradBuf *tensor.Tensor
}

func (s *layerStep) run(tr *tracer, id uint64, b dataset.Batch) {
	root := tr.open(id, -1, "train.step")
	out := b.X
	for i, l := range s.net.Layers {
		sp := tr.open(id, root, "nn.fwd."+cnn1Layers[i])
		out = l.Forward(out, true)
		tr.close(sp)
	}
	sp := tr.open(id, root, "train.loss")
	_, g := s.loss.LossInto(s.gradBuf, out, b.Y)
	s.gradBuf = g
	tr.close(sp)
	for i := len(s.net.Layers) - 1; i >= 0; i-- {
		sp := tr.open(id, root, "nn.bwd."+cnn1Layers[i])
		g = s.net.Layers[i].Backward(g)
		tr.close(sp)
	}
	sp = tr.open(id, root, "train.opt")
	nn.ClipGradNorm(s.net.Params(), 5)
	s.opt.Step(s.net.Params())
	tr.close(sp)
	tr.close(root)
}

// trainProbe trains locked CNN1 layer by layer, without and then with a
// span around every layer call, and through the Trainer at K replicas
// (checked against its K=1 replay); it sets the train.* and nn.* metrics
// and returns the traced and untraced median step times. share of
// --seconds goes to each layer-by-layer phase.
func trainProbe(r *run, share float64) (traced, plain float64, err error) {
	const probeEpochsPerSecond = 3.0 // Trainer epochs per second of share
	f, err := newTrainFixture(r)
	if err != nil {
		return 0, 0, err
	}
	m, err := f.model()
	if err != nil {
		return 0, 0, err
	}
	if len(m.Net.Layers) != len(cnn1Layers) {
		return 0, 0, fmt.Errorf("CNN1 has %d layers, the metric map names %d", len(m.Net.Layers), len(cnn1Layers))
	}
	tr := newTracer()
	ls := &layerStep{net: m.Net, opt: nn.NewMomentumSGD(0.05, 0.9, 0)}
	phase := func(t *tracer, dur time.Duration) []float64 {
		var steps []float64
		end := time.Now().Add(dur)
		for epoch := 0; time.Now().Before(end); epoch++ {
			for _, b := range dataset.Batches(f.x, f.y, trainBatch, train.ShuffleSeed(f.seed, epoch)) {
				t0 := time.Now()
				ls.run(t, uint64(len(steps)), b)
				steps = append(steps, ms(time.Since(t0)))
			}
		}
		return steps
	}
	phase(nil, r.budget(share/6))
	plainSteps := phase(nil, r.budget(share))
	tracedSteps := phase(tr, r.budget(share))

	// The Trainer's own step at K replicas, timed by its step hook and
	// checked against its K=1 replay; about as long as each phase above.
	steps2, err := trainChecked(r, f, int(math.Max(1, math.Round(share*r.seconds*probeEpochsPerSecond))), trainBatch)
	if err != nil {
		return 0, 0, err
	}

	st, err := r.finishTrace(tr, "-train")
	if err != nil {
		return 0, 0, err
	}
	for _, l := range cnn1Layers {
		r.set("nn.fwd_ms."+l, p50ms(st, "nn.fwd."+l), "ms")
		r.set("nn.bwd_ms."+l, p50ms(st, "nn.bwd."+l), "ms")
	}
	r.set("train.loss_ms", p50ms(st, "train.loss"), "ms")
	r.set("train.opt_ms", p50ms(st, "train.opt"), "ms")
	r.set("train.step_ms", median(steps2), "ms")
	return median(tracedSteps), median(plainSteps), nil
}

func trainCNN1Traced(r *run) error {
	r.initLayerMetrics()
	traced, plain, err := trainProbe(r, 0.3)
	if err != nil {
		return err
	}
	r.set("trace.overhead_pct", overheadPct(traced, plain), "%")
	return nil
}
