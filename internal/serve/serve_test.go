package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

// testFixture is a locked model plus everything needed to serve it and to
// check served answers against the golden reference, PredictSample.
type testFixture struct {
	model *core.Model
	dev   *keys.Device
	sched *schedule.Schedule
	x     *tensor.Tensor // [n, C, H, W] random inputs
	want  []int          // golden PredictSample predictions
	feat  int
}

// newFixture builds a small random locked MLP (8×8, 4 classes) with n
// reference inputs. Random weights are fine for differential checks: the
// quantized path is deterministic, so serve and golden must agree
// bit-for-bit regardless of training.
func newFixture(t testing.TB, arch core.Arch, hw, n int, seed uint64) *testFixture {
	t.Helper()
	m := core.MustModel(core.Config{Arch: arch, InC: 1, InH: hw, InW: hw, Classes: 4, Seed: seed})
	key := keys.Generate(rng.New(seed + 1))
	sched := schedule.New(keys.KeyBits, seed+2)
	m.ApplyRawKey(key, sched)
	dev := keys.NewDevice("user", key)

	x := tensor.New(n, 1, hw, hw)
	x.FillUniform(rng.New(seed+3), -1, 1)

	ref, err := tpu.NewAccelerator(tpu.DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	return &testFixture{model: m, dev: dev, sched: sched, x: x, want: goldenPredict(t, ref, m, x), feat: hw * hw}
}

// goldenPredict is the golden oracle: the accelerator's PredictSample,
// sample by sample, with every MAC on the simulated MMU.
func goldenPredict(t testing.TB, acc *tpu.Accelerator, m *core.Model, x *tensor.Tensor) []int {
	t.Helper()
	n := x.Shape[0]
	feat := x.Len() / n
	out := make([]int, n)
	for i := range out {
		var err error
		if out[i], err = acc.PredictSample(m, tensor.FromSlice(x.Data[i*feat:(i+1)*feat], x.Shape[1:]...)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// newSchemeFixture is newFixture through a named lock scheme's full owner
// lifecycle (instrument → publish), with the golden reference running
// on an accelerator lowering that scheme. It parameterizes the serve
// differential and bench suites over the whole lockscheme registry.
func newSchemeFixture(t testing.TB, schemeName string, arch core.Arch, hw, n int, seed uint64) *testFixture {
	t.Helper()
	scheme, err := lockscheme.Get(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	m := core.MustModel(core.Config{Arch: arch, InC: 1, InH: hw, InW: hw, Classes: 4, Seed: seed})
	key := keys.Generate(rng.New(seed + 1))
	sched := schedule.New(keys.KeyBits, seed+2)
	dev := keys.NewDevice("user", key)
	if err := scheme.InstrumentTraining(m, dev, sched); err != nil {
		t.Fatal(err)
	}
	if err := scheme.Publish(m, dev, sched); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(n, 1, hw, hw)
	x.FillUniform(rng.New(seed+3), -1, 1)

	ref, err := tpu.NewAcceleratorFor(scheme, tpu.DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	return &testFixture{model: m, dev: dev, sched: sched, x: x, want: goldenPredict(t, ref, m, x), feat: hw * hw}
}

func (f *testFixture) server(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(f.model, tpu.DefaultConfig(), f.dev, f.sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sample returns a [C, H, W] view of reference input i.
func (f *testFixture) sample(i int) *tensor.Tensor {
	return tensor.FromSlice(f.x.Data[i*f.feat:(i+1)*f.feat], 1, f.x.Shape[2], f.x.Shape[3])
}

func TestServePredictMatchesReference(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 16, 100)
	s := f.server(t, Config{Shards: 2})
	defer s.Close()
	for i := 0; i < 16; i++ {
		got, err := s.Predict(context.Background(), f.sample(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != f.want[i] {
			t.Fatalf("sample %d: served class %d, reference %d", i, got, f.want[i])
		}
	}
}

func TestServeRejectsBadShape(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 1, 110)
	s := f.server(t, Config{Shards: 1})
	defer s.Close()
	if _, err := s.Predict(context.Background(), tensor.New(1, 4, 4)); err == nil {
		t.Fatal("wrong sample shape accepted")
	}
	if _, err := s.PredictBatch(context.Background(), tensor.New(2, 1, 4, 4)); err == nil {
		t.Fatal("wrong batch shape accepted")
	}
}

// TestServeHammer drives the server from 32 goroutines with mixed
// single-sample and batch submissions plus mid-flight cancellations, and
// asserts every request is answered exactly once with the reference class.
// Run under -race (scripts/check.sh runs it -count=3).
func TestServeHammer(t *testing.T) {
	const n = 16
	f := newFixture(t, core.MLP, 8, n, 120)
	s := f.server(t, Config{Shards: 4, MaxBatch: 8, QueueDepth: 4096})
	defer s.Close()

	const goroutines = 32
	const perG = 30
	var answered, canceled atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(200 + g))
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0: // single sample
					idx := int(r.Uint64() % n)
					got, err := s.Predict(context.Background(), f.sample(idx))
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					if got != f.want[idx] {
						t.Errorf("goroutine %d sample %d: class %d, want %d", g, idx, got, f.want[idx])
						return
					}
					answered.Add(1)
				case 1: // batch of 1..5 samples starting at a random offset
					bn := 1 + int(r.Uint64()%5)
					lo := int(r.Uint64() % uint64(n-bn+1))
					bx := tensor.FromSlice(f.x.Data[lo*f.feat:(lo+bn)*f.feat], bn, 1, 8, 8)
					got, err := s.PredictBatch(context.Background(), bx)
					if err != nil {
						t.Errorf("goroutine %d batch: %v", g, err)
						return
					}
					for j := range got {
						if got[j] != f.want[lo+j] {
							t.Errorf("goroutine %d batch sample %d: class %d, want %d",
								g, lo+j, got[j], f.want[lo+j])
							return
						}
					}
					answered.Add(uint64(bn))
				case 2: // cancellation racing the in-flight request
					ctx, cancel := context.WithCancel(context.Background())
					idx := int(r.Uint64() % n)
					go cancel()
					got, err := s.Predict(ctx, f.sample(idx))
					switch {
					case err == nil:
						if got != f.want[idx] {
							t.Errorf("goroutine %d canceled-race sample %d: class %d, want %d",
								g, idx, got, f.want[idx])
							return
						}
						answered.Add(1)
					case errors.Is(err, context.Canceled):
						canceled.Add(1)
					default:
						t.Errorf("goroutine %d canceled-race: unexpected error %v", g, err)
						return
					}
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Close()
	if st.Overloaded != 0 {
		t.Fatalf("queue sized for the load yet %d requests shed", st.Overloaded)
	}
	// Every submission got exactly one outcome, and the server counted the
	// same one: a cancelled caller either withdrew its request (canceled)
	// or waited for the shard's answer (completed, or canceled when the
	// shard found the context dead).
	if st.Completed != answered.Load() || st.Canceled != canceled.Load() || st.Errors != 0 {
		t.Fatalf("server counted %d completed, %d canceled, %d errors; clients saw %d answered, %d canceled",
			st.Completed, st.Canceled, st.Errors, answered.Load(), canceled.Load())
	}
}

// TestServeCloseDuringLoad closes the server while 16 goroutines are
// submitting: every Predict must return (a class or ErrClosed — nothing
// may hang), accepted requests must drain, and Close must not deadlock.
func TestServeCloseDuringLoad(t *testing.T) {
	const n = 8
	f := newFixture(t, core.MLP, 8, n, 130)
	s := f.server(t, Config{Shards: 2, MaxBatch: 4, QueueDepth: 1024})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var served, rejected atomic.Uint64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (g + i) % n
				got, err := s.Predict(context.Background(), f.sample(idx))
				switch {
				case err == nil:
					if got != f.want[idx] {
						t.Errorf("sample %d: class %d, want %d", idx, got, f.want[idx])
						return
					}
					served.Add(1)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
					return
				case errors.Is(err, ErrOverloaded):
					// acceptable under this much load; retry
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let load build

	closed := make(chan Stats, 1)
	go func() { closed <- s.Close() }()
	select {
	case st := <-closed:
		close(stop)
		wg.Wait()
		if st.Completed == 0 {
			t.Fatal("no requests served before close")
		}
		if st.Completed < served.Load() {
			t.Fatalf("server counted %d completions, clients observed %d", st.Completed, served.Load())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked under load")
	}

	if _, err := s.Predict(context.Background(), f.sample(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Predict returned %v, want ErrClosed", err)
	}
	// Idempotent close.
	s.Close()
}

// parkShards installs a testBatchHook that holds every shard in the hook,
// after it takes a batch and before it runs it, until release is called.
// taken receives once per batch taken while parked. Tests use it to make
// "these requests sit in the queue" a fact rather than a timing guess.
func parkShards(cfg *Config) (taken <-chan struct{}, release func()) {
	gate := make(chan struct{})
	ch := make(chan struct{}, 64)
	cfg.testBatchHook = func() {
		select {
		case ch <- struct{}{}:
		default:
		}
		<-gate
	}
	var once sync.Once
	return ch, func() { once.Do(func() { close(gate) }) }
}

// parkOn submits one request in the background and waits until a shard has
// taken it and parked. The returned channel yields that request's error
// once the shard is released.
func parkOn(t *testing.T, s *Server, x *tensor.Tensor, taken <-chan struct{}) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := s.Predict(context.Background(), x)
		errc <- err
	}()
	select {
	case <-taken:
	case err := <-errc:
		t.Fatalf("parking request returned early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no shard took the parking request")
	}
	return errc
}

// queued reports how many admitted requests no shard has taken yet.
func (s *Server) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestServeQueuedCancellation cancels the contexts of requests sitting in
// the queue behind a parked shard and checks that each is withdrawn — its
// caller gets the context error and no shard runs it — while later traffic
// still flows.
func TestServeQueuedCancellation(t *testing.T) {
	const n = 8
	f := newFixture(t, core.MLP, 8, n, 140)
	cfg := Config{Shards: 1, MaxBatch: 64, QueueDepth: 256}
	taken, release := parkShards(&cfg)
	s := f.server(t, cfg)
	defer s.Close()
	defer release()
	blocker := parkOn(t, s, f.sample(0), taken)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Predict(ctx, f.sample(i))
		}()
	}
	waitFor(t, "the requests to queue", func() bool { return s.queued() == n })
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("request %d: %v, want context.Canceled", i, err)
		}
	}
	if q := s.queued(); q != 0 {
		t.Fatalf("%d cancelled requests still queued", q)
	}
	release()
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	// The server keeps serving after the cancellation storm.
	got, err := s.Predict(context.Background(), f.sample(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != f.want[0] {
		t.Fatalf("post-cancel class %d, want %d", got, f.want[0])
	}
	if st := s.Stats(); st.Canceled != n || st.Completed != 2 {
		t.Fatalf("server counted %d canceled and %d completed, want %d and 2", st.Canceled, st.Completed, n)
	}
}

// TestServeCancelledRequestsFreeTheirSlots: a cancelled request gives its
// queue slot back at once. With the only shard parked, 4·QueueDepth
// requests at the default depth are sent one at a time, each cancelled once
// it is queued; none may be shed, though the queue holds only QueueDepth.
func TestServeCancelledRequestsFreeTheirSlots(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 1, 145)
	cfg := Config{Shards: 1}
	taken, release := parkShards(&cfg)
	s := f.server(t, cfg)
	defer s.Close()
	defer release()
	blocker := parkOn(t, s, f.sample(0), taken)

	total := 4 * s.cfg.QueueDepth
	for i := 0; i < total; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := s.Predict(ctx, f.sample(0))
			errc <- err
		}()
		waitFor(t, "the request to queue", func() bool { return s.queued() == 1 || len(errc) > 0 })
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("request %d of %d (QueueDepth %d): %v, want context.Canceled", i, total, s.cfg.QueueDepth, err)
		}
	}
	release()
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Overloaded != 0 || st.Canceled != uint64(total) {
		t.Fatalf("server shed %d and canceled %d requests, want 0 and %d", st.Overloaded, st.Canceled, total)
	}
}

// TestServeCancelledBufferReuse pins the buffer contract under
// cancellation: once Predict has returned, no shard reads the caller's
// sample, so the caller may overwrite it at once. Four goroutines each
// cancel their request after a short spin and rewrite their buffer after
// every Predict. A shard still copying the buffer is a data race, which
// -race reports (scripts/check.sh runs it -count=3); answers that do come
// back must still be the reference class. The queue has its default depth
// and at most four requests are live, so none may be shed.
func TestServeCancelledBufferReuse(t *testing.T) {
	const goroutines = 4
	f := newFixture(t, core.CNN1, 16, goroutines, 160)
	s := f.server(t, Config{Shards: 2})
	defer s.Close()

	deadline := time.Now().Add(2 * time.Second)
	var answered, canceled atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := tensor.New(1, 16, 16)
			for i := 0; time.Now().Before(deadline); i++ {
				copy(buf.Data, f.sample(g).Data)
				ctx, cancel := context.WithCancel(context.Background())
				spin := (i*37 + g*11) % 4096
				spun := make(chan struct{})
				go func() {
					defer close(spun)
					x := 0
					for k := 0; k < spin; k++ {
						x += k
					}
					_ = x
					cancel()
				}()
				got, err := s.Predict(ctx, buf)
				<-spun
				switch {
				case err == nil:
					if got != f.want[g] {
						t.Errorf("goroutine %d: class %d, want %d", g, got, f.want[g])
						return
					}
					answered.Add(1)
				case errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					t.Errorf("goroutine %d: unexpected error %v", g, err)
					return
				}
				// Predict has returned: the buffer is the caller's again.
				for j := range buf.Data {
					buf.Data[j] = float64(i)
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d answered, %d canceled", answered.Load(), canceled.Load())
}

// TestServeBackpressure parks the single shard (via the test batch hook)
// so the server's capacity is exactly known — one request taken by the
// parked shard plus QueueDepth queued — floods past it, and requires typed
// overload errors rather than unbounded buffering. Then it releases the
// shard and verifies recovery. The hook makes this deterministic even on
// GOMAXPROCS=1, where a free-running shard drains the queue faster than a
// flood can fill it.
func TestServeBackpressure(t *testing.T) {
	const n = 4
	f := newFixture(t, core.MLP, 8, n, 150)

	cfg := Config{Shards: 1, MaxBatch: 1, QueueDepth: 1}
	taken, release := parkShards(&cfg)
	s := f.server(t, cfg)
	defer s.Close()
	defer release()

	// While the shard is parked the server holds 1 request (taken by the
	// shard) + 1 (queue, cap=QueueDepth) = 2. Everything beyond must shed.
	const capacity = 2
	const flood = 12

	var overloaded, served atomic.Uint64
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), f.sample(i%n))
			switch {
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case err == nil:
				served.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}

	submit(0)
	select {
	case <-taken: // the shard is now provably parked
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first request")
	}
	for i := 1; i < flood; i++ {
		submit(i)
	}
	// The parked server absorbs exactly capacity-1 more requests, so
	// flood-capacity goroutines must observe ErrOverloaded.
	waitFor(t, "the flood to shed", func() bool { return overloaded.Load() >= flood-capacity })

	release() // absorbed requests drain
	wg.Wait()
	if served.Load() != capacity || overloaded.Load() != flood-capacity {
		t.Fatalf("server of capacity %d served %d and shed %d of %d requests",
			capacity, served.Load(), overloaded.Load(), flood)
	}
	if got := s.Stats().Overloaded; got != overloaded.Load() {
		t.Fatalf("server counted %d shed requests, clients saw %d", got, overloaded.Load())
	}
	// Recovery: a lone request goes straight through.
	if _, err := s.Predict(context.Background(), f.sample(0)); err != nil {
		t.Fatalf("server did not recover after overload: %v", err)
	}
}

// TestServeBatchCoalescing checks that requests which queue while every
// shard is busy leave together. Both shards are parked on one request each,
// 62 more queue behind them, and on release they leave as exactly 8
// batches — 10 in all for 64 requests. A PredictBatch is admitted under one
// lock, so on an idle server 32 samples leave as exactly 4 batches of 8.
func TestServeBatchCoalescing(t *testing.T) {
	const n = 32
	f := newFixture(t, core.MLP, 8, n, 160)
	cfg := Config{Shards: 2, MaxBatch: 8, QueueDepth: 1024}
	taken, release := parkShards(&cfg)
	s := f.server(t, cfg)
	defer s.Close()
	defer release()
	blockers := []<-chan error{parkOn(t, s, f.sample(0), taken), parkOn(t, s, f.sample(1), taken)}

	var wg sync.WaitGroup
	for i := 2; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Predict(context.Background(), f.sample(i%n))
			if err != nil {
				t.Errorf("predict: %v", err)
			} else if got != f.want[i%n] {
				t.Errorf("request %d: class %d, want %d", i, got, f.want[i%n])
			}
		}()
	}
	waitFor(t, "62 requests to queue", func() bool { return s.queued() == 62 })
	release()
	wg.Wait()
	for _, errc := range blockers {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Close()
	if st.Completed != 64 || st.Batches != 10 {
		t.Fatalf("64 requests completed %d in %d batches, want 64 in 10", st.Completed, st.Batches)
	}

	idle := f.server(t, Config{Shards: 2, MaxBatch: 8})
	got, err := idle.PredictBatch(context.Background(), f.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != f.want[i] {
			t.Fatalf("batch sample %d: class %d, want %d", i, got[i], f.want[i])
		}
	}
	if st := idle.Close(); st.Batches != 4 {
		t.Fatalf("a batch of %d on an idle 2-shard server left in %d batches, want 4", n, st.Batches)
	}
}

func TestServeStatsString(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 2, 170)
	s := f.server(t, Config{Shards: 1})
	if _, err := s.Predict(context.Background(), f.sample(0)); err != nil {
		t.Fatal(err)
	}
	st := s.Close()
	if st.P50 <= 0 || st.Max < st.P50 {
		t.Fatalf("implausible latency percentiles: %+v", st)
	}
	if s.HardwareStats().MACs == 0 {
		t.Fatal("served traffic recorded no MMU activity")
	}
	if s.WorkspaceBytes() == 0 {
		t.Fatal("no workspace footprint reported")
	}
	if str := st.String(); str == "" {
		t.Fatal("empty stats rendering")
	}
}
