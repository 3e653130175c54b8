package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/modelio"
	"hpnn/internal/rng"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

// blobFor serializes a fixture's model into the published-blob form tenants
// are registered from.
func blobFor(t testing.TB, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := modelio.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// registryConfig is the test default: small shards, generous queue.
func registryConfig() RegistryConfig {
	return RegistryConfig{Tenant: Config{
		Shards: 2, MaxBatch: 8, QueueDepth: 4096,
	}}
}

// TestRegistryMultiModelDifferential is the headline acceptance test: one
// registry serving one tenant per registered lock scheme (≥3 models, ≥2
// schemes) concurrently, every answer bitwise-equal to that model's
// single-tenant golden prediction. Run under -race by scripts/check.sh.
func TestRegistryMultiModelDifferential(t *testing.T) {
	const n = 8
	names := lockscheme.Names()
	if len(names) < 2 {
		t.Fatalf("need ≥2 lock schemes for the multi-tenant differential, have %d", len(names))
	}
	fixtures := make(map[string]*testFixture, len(names)+1)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	for si, schemeName := range names {
		f := newSchemeFixture(t, schemeName, core.MLP, 8, n, 900+uint64(100*si))
		fixtures[schemeName] = f
		if err := reg.Register(schemeName, blobFor(t, f.model), f.dev, f.sched); err != nil {
			t.Fatal(err)
		}
	}
	// A raw-key tenant alongside the scheme tenants, guaranteeing ≥3 models
	// even with a two-scheme registry.
	raw := newFixture(t, core.MLP, 8, n, 990)
	fixtures["raw"] = raw
	if err := reg.Register("raw", blobFor(t, raw.model), raw.dev, raw.sched); err != nil {
		t.Fatal(err)
	}
	models := append(append([]string(nil), names...), "raw")
	if len(models) < 3 {
		t.Fatalf("acceptance requires ≥3 tenants, have %d", len(models))
	}

	const goroutines = 16
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(7000 + g))
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				model := models[r.Uint64()%uint64(len(models))]
				f := fixtures[model]
				if i%5 == 4 { // batch submission through the same tenant
					bn := 1 + int(r.Uint64()%4)
					lo := int(r.Uint64() % uint64(n-bn+1))
					bx := tensor.FromSlice(f.x.Data[lo*f.feat:(lo+bn)*f.feat], bn, 1, 8, 8)
					got, err := reg.PredictBatch(ctx, model, bx)
					if err != nil {
						t.Errorf("goroutine %d model %s batch: %v", g, model, err)
						return
					}
					for j := range got {
						if got[j] != f.want[lo+j] {
							t.Errorf("goroutine %d model %s batch sample %d: class %d, want %d",
								g, model, lo+j, got[j], f.want[lo+j])
							return
						}
					}
					continue
				}
				idx := int(r.Uint64() % n)
				got, err := reg.Predict(ctx, model, f.sample(idx))
				if err != nil {
					t.Errorf("goroutine %d model %s: %v", g, model, err)
					return
				}
				if got != f.want[idx] {
					t.Errorf("goroutine %d model %s sample %d: class %d, want %d",
						g, model, idx, got, f.want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	infos := reg.Tenants()
	if len(infos) != len(models) {
		t.Fatalf("registry reports %d tenants, registered %d", len(infos), len(models))
	}
	var completed uint64
	for _, info := range infos {
		completed += info.Stats.Completed
		if info.Hardware.MACs == 0 {
			t.Errorf("tenant %s served traffic but recorded no MMU activity", info.Name)
		}
	}
	if completed == 0 {
		t.Fatal("no completions recorded across tenants")
	}
}

// TestRegistryDefaultRouting pins the v1-compat routing rules: "" routes to
// the sole tenant, then to the configured default; unknown IDs fail.
func TestRegistryDefaultRouting(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 2, 1100)
	ctx := context.Background()

	// Sole tenant: "" routes to it without any configuration.
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	if err := reg.Register("only", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Predict(ctx, "", f.sample(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != f.want[0] {
		t.Fatalf("default-routed class %d, want %d", got, f.want[0])
	}
	if _, err := reg.Predict(ctx, "nope", f.sample(0)); err == nil {
		t.Fatal("unknown model ID accepted")
	}

	// Two tenants, no default: "" must be rejected, not routed arbitrarily.
	g := newFixture(t, core.MLP, 8, 2, 1200)
	if err := reg.Register("second", blobFor(t, g.model), g.dev, g.sched); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Predict(ctx, "", f.sample(0)); err == nil {
		t.Fatal("ambiguous default routing accepted with 2 tenants and no DefaultModel")
	}
	reg.Close()

	// Configured default: "" routes there even among several tenants.
	cfg := registryConfig()
	cfg.DefaultModel = "beta"
	reg2 := NewRegistry(tpu.DefaultConfig(), cfg)
	defer reg2.Close()
	f2 := newFixture(t, core.MLP, 8, 2, 1300)
	g2 := newFixture(t, core.MLP, 8, 2, 1400)
	if err := reg2.Register("alpha", blobFor(t, f2.model), f2.dev, f2.sched); err != nil {
		t.Fatal(err)
	}
	if err := reg2.Register("beta", blobFor(t, g2.model), g2.dev, g2.sched); err != nil {
		t.Fatal(err)
	}
	got, err = reg2.Predict(ctx, "", g2.sample(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != g2.want[1] {
		t.Fatalf("DefaultModel-routed class %d, want beta's %d", got, g2.want[1])
	}
}

// TestRegistryKeyIsolation pins the trust boundary: one device serves one
// model. Binding a device already bound to another tenant must fail, and
// the failed registration must not leave a half-registered tenant behind.
func TestRegistryKeyIsolation(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 1, 1500)
	g := newFixture(t, core.MLP, 8, 1, 1600)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	if err := reg.Register("a", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("b", blobFor(t, g.model), f.dev, g.sched); err == nil {
		t.Fatal("device bound to tenant a accepted for tenant b — key material crossed tenants")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("failed registration left tenants %v", names)
	}
	// Distinct devices register fine; commodity (nil-device) tenants are not
	// constrained by the ring.
	if err := reg.Register("b", blobFor(t, g.model), g.dev, g.sched); err != nil {
		t.Fatal(err)
	}
	h := newFixture(t, core.MLP, 8, 1, 1700)
	if err := reg.Register("c", blobFor(t, h.model), nil, h.sched); err != nil {
		t.Fatal(err)
	}
	i := newFixture(t, core.MLP, 8, 1, 1800)
	if err := reg.Register("d", blobFor(t, i.model), nil, i.sched); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryBudgetEviction exercises the LRU under a budget that fits
// exactly one resident tenant: compiling the second must drain and release
// the first, the summed footprint must stay within budget, and the evicted
// tenant must lazily recompile — still bitwise-correct — on its next hit.
func TestRegistryBudgetEviction(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 4, 1900)
	g := newFixture(t, core.MLP, 8, 4, 2000)
	ctx := context.Background()

	// Measure one tenant's resident footprint with an unbudgeted registry.
	probe := NewRegistry(tpu.DefaultConfig(), registryConfig())
	if err := probe.Register("a", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if err := probe.Warm("a"); err != nil {
		t.Fatal(err)
	}
	budget := probe.WorkspaceBytes()
	if budget == 0 {
		t.Fatal("resident tenant reports zero workspace footprint")
	}
	probe.Close()

	cfg := registryConfig()
	cfg.MaxWorkspaceBytes = budget // same arch ⇒ room for exactly one tenant
	reg := NewRegistry(tpu.DefaultConfig(), cfg)
	defer reg.Close()
	if err := reg.Register("a", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("b", blobFor(t, g.model), g.dev, g.sched); err != nil {
		t.Fatal(err)
	}

	check := func(model string, fx *testFixture, idx int) {
		t.Helper()
		got, err := reg.Predict(ctx, model, fx.sample(idx))
		if err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
		if got != fx.want[idx] {
			t.Fatalf("model %s sample %d: class %d, want %d", model, idx, got, fx.want[idx])
		}
		if ws := reg.WorkspaceBytes(); ws > budget {
			t.Fatalf("resident footprint %d exceeds budget %d after hitting %s", ws, budget, model)
		}
	}
	check("a", f, 0) // a resident
	check("b", g, 1) // b compiles, a evicted
	check("a", f, 2) // a recompiles lazily, b evicted
	check("b", g, 3)

	c := reg.Counters()
	if c.Evictions < 3 {
		t.Fatalf("budget for one tenant, 4 alternating hits: %d evictions, want ≥3", c.Evictions)
	}
	if c.Compiles < 4 {
		t.Fatalf("alternating hits under a one-tenant budget: %d compiles, want ≥4", c.Compiles)
	}
	// Residency flipped, but per-tenant accounting survived the churn.
	for _, info := range reg.Tenants() {
		if info.Stats.Completed != 2 {
			t.Fatalf("tenant %s: %d completions across evictions, want 2", info.Name, info.Stats.Completed)
		}
	}
	resident := 0
	for _, info := range reg.Tenants() {
		if info.Resident {
			resident++
		}
	}
	if resident != 1 {
		t.Fatalf("%d tenants resident under a one-tenant budget", resident)
	}
}

// swapFixture builds two versions of one tenant — same key, same schedule,
// same device, different weights — plus golden predictions for both on a
// shared input set. The pair drives the hot-swap bitwise tests.
type swapFixture struct {
	dev          *keys.Device
	sched        *schedule.Schedule
	blob1, blob2 []byte
	x            *tensor.Tensor
	want1, want2 []int
	feat         int
}

func newSwapFixture(t testing.TB, n int, seed uint64) *swapFixture {
	t.Helper()
	const hw = 8
	key := keys.Generate(rng.New(seed))
	sched := schedule.New(keys.KeyBits, seed+1)
	dev := keys.NewDevice("owner", key)

	m1 := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: hw, InW: hw, Classes: 4, Seed: seed + 2})
	m1.ApplyRawKey(key, sched)
	m2 := core.MustModel(core.Config{Arch: core.MLP, InC: 1, InH: hw, InW: hw, Classes: 4, Seed: seed + 3})
	m2.ApplyRawKey(key, sched)

	x := tensor.New(n, 1, hw, hw)
	x.FillUniform(rng.New(seed+4), -1, 1)

	ref, err := tpu.NewAccelerator(tpu.DefaultConfig(), dev, sched)
	if err != nil {
		t.Fatal(err)
	}
	want1 := goldenPredict(t, ref, m1, x)
	want2 := goldenPredict(t, ref, m2, x)
	differ := false
	for i := range want1 {
		if want1[i] != want2[i] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("swap fixture versions predict identically everywhere — the split test would be vacuous")
	}
	return &swapFixture{
		dev: dev, sched: sched,
		blob1: blobFor(t, m1), blob2: blobFor(t, m2),
		x: x, want1: want1, want2: want2, feat: hw * hw,
	}
}

func (sf *swapFixture) sample(i int) *tensor.Tensor {
	return tensor.FromSlice(sf.x.Data[i*sf.feat:(i+1)*sf.feat], 1, sf.x.Shape[2], sf.x.Shape[3])
}

// TestRegistryHotSwapBitwiseSplit streams predictions through a tenant
// across a synchronous Deploy and asserts the stream is exactly the two
// versions' golden outputs split at the swap point: old version bitwise
// before, new version bitwise after, nothing in between.
func TestRegistryHotSwapBitwiseSplit(t *testing.T) {
	const n = 12
	const split = 6
	sf := newSwapFixture(t, n, 2100)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	if err := reg.Register("m", sf.blob1, sf.dev, sf.sched); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < split; i++ {
		got, err := reg.Predict(ctx, "m", sf.sample(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != sf.want1[i] {
			t.Fatalf("pre-swap sample %d: class %d, want v1's %d", i, got, sf.want1[i])
		}
	}
	if err := reg.Deploy("m", sf.blob2); err != nil {
		t.Fatal(err)
	}
	for i := split; i < n; i++ {
		got, err := reg.Predict(ctx, "m", sf.sample(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != sf.want2[i] {
			t.Fatalf("post-swap sample %d: class %d, want v2's %d", i, got, sf.want2[i])
		}
	}
	infos := reg.Tenants()
	if len(infos) != 1 || infos[0].Version != 1 {
		t.Fatalf("tenant version %d after one deploy, want 1", infos[0].Version)
	}
	if infos[0].Stats.Completed != n {
		t.Fatalf("tenant completed %d across the swap, want %d (stats must survive retirement)",
			infos[0].Stats.Completed, n)
	}
	if c := reg.Counters(); c.Swaps != 1 {
		t.Fatalf("registry counted %d swaps, want 1", c.Swaps)
	}
	// Deploying a non-resident tenant is a pure blob update: no compile until
	// the next hit, which then serves the newest version.
	cold := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer cold.Close()
	if err := cold.Register("m", sf.blob1, sf.dev, sf.sched); err != nil {
		t.Fatal(err)
	}
	if err := cold.Deploy("m", sf.blob2); err != nil {
		t.Fatal(err)
	}
	if got := cold.Counters().Compiles; got != 0 {
		t.Fatalf("deploy to a non-resident tenant compiled eagerly (%d compiles)", got)
	}
	got, err := cold.Predict(ctx, "m", sf.sample(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != sf.want2[0] {
		t.Fatalf("non-resident deploy then hit: class %d, want v2's %d", got, sf.want2[0])
	}
}

// TestRegistryHotSwapZeroDrop hammers a tenant from many goroutines while a
// Deploy hot-swaps it mid-stream. Acceptance: zero requests dropped or
// failed; every answer is bitwise one of the two versions; per goroutine
// the stream is monotonic (once the new version answers, the old never
// does); and once Deploy has returned, only the new version answers.
// Run under -race by scripts/check.sh.
func TestRegistryHotSwapZeroDrop(t *testing.T) {
	const n = 8
	sf := newSwapFixture(t, n, 2200)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	if err := reg.Register("m", sf.blob1, sf.dev, sf.sched); err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm("m"); err != nil {
		t.Fatal(err)
	}

	var swapDone atomic.Bool
	stop := make(chan struct{})
	var submitted, answered atomic.Uint64
	var wg sync.WaitGroup
	const goroutines = 12
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(3000 + g))
			ctx := context.Background()
			sawNew := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := int(r.Uint64() % n)
				settled := swapDone.Load() // sampled before submit: if true, only v2 may answer
				submitted.Add(1)
				got, err := reg.Predict(ctx, "m", sf.sample(idx))
				if err != nil {
					t.Errorf("goroutine %d: request failed across the swap: %v", g, err)
					return
				}
				answered.Add(1)
				isV1 := got == sf.want1[idx]
				isV2 := got == sf.want2[idx]
				switch {
				case !isV1 && !isV2:
					t.Errorf("goroutine %d sample %d: class %d matches neither v1 %d nor v2 %d",
						g, idx, got, sf.want1[idx], sf.want2[idx])
					return
				case settled && !isV2:
					t.Errorf("goroutine %d sample %d: v1 answer %d after Deploy returned", g, idx, got)
					return
				case sawNew && !isV2:
					t.Errorf("goroutine %d sample %d: v1 answer %d after a v2 answer — swap not monotonic",
						g, idx, got)
					return
				}
				if isV2 && !isV1 { // unambiguously the new version
					sawNew = true
				}
			}
		}(g)
	}

	time.Sleep(10 * time.Millisecond) // load builds against v1
	if err := reg.Deploy("m", sf.blob2); err != nil {
		t.Fatal(err)
	}
	swapDone.Store(true)
	time.Sleep(10 * time.Millisecond) // load continues against v2
	close(stop)
	wg.Wait()

	if submitted.Load() != answered.Load() {
		t.Fatalf("submitted %d, answered %d — the swap dropped requests", submitted.Load(), answered.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("hammer made no requests")
	}
	infos := reg.Tenants()
	if infos[0].Stats.Completed < answered.Load() {
		t.Fatalf("tenant counted %d completions, clients observed %d", infos[0].Stats.Completed, answered.Load())
	}
	if c := reg.Counters(); c.Swaps != 1 {
		t.Fatalf("registry counted %d swaps, want 1", c.Swaps)
	}
}

// TestRegistryCloseDuringLoad closes the registry while goroutines submit
// across two tenants: every request resolves (correct answer or ErrClosed),
// nothing hangs, and Close's tenant reports carry the served totals.
func TestRegistryCloseDuringLoad(t *testing.T) {
	const n = 4
	f := newFixture(t, core.MLP, 8, n, 2300)
	g := newFixture(t, core.MLP, 8, n, 2400)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	if err := reg.Register("a", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("b", blobFor(t, g.model), g.dev, g.sched); err != nil {
		t.Fatal(err)
	}

	fixtures := map[string]*testFixture{"a": f, "b": g}
	var wg sync.WaitGroup
	var served atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{"a", "b"}[i%2]
			fx := fixtures[model]
			ctx := context.Background()
			for j := 0; ; j++ {
				idx := j % n
				got, err := reg.Predict(ctx, model, fx.sample(idx))
				switch {
				case err == nil:
					if got != fx.want[idx] {
						t.Errorf("model %s sample %d: class %d, want %d", model, idx, got, fx.want[idx])
						return
					}
					served.Add(1)
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, ErrOverloaded):
					// heavy load; retry
				default:
					t.Errorf("unexpected error during close: %v", err)
					return
				}
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)

	done := make(chan []TenantInfo, 1)
	go func() { done <- reg.Close() }()
	select {
	case infos := <-done:
		wg.Wait()
		var completed uint64
		for _, info := range infos {
			completed += info.Stats.Completed
			if info.Resident {
				t.Errorf("tenant %s still resident after Close", info.Name)
			}
		}
		if completed < served.Load() {
			t.Fatalf("tenant reports count %d completions, clients observed %d", completed, served.Load())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("registry Close deadlocked under load")
	}
	if _, err := reg.Predict(context.Background(), "a", f.sample(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Predict returned %v, want ErrClosed", err)
	}
	reg.Close() // idempotent
}

// TestRegistryNoCompileAfterClose: a request that resolved its tenant
// before Close and reaches it after Close's drain must get ErrClosed, not
// compile a fresh server that nothing would ever drain or release.
func TestRegistryNoCompileAfterClose(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 1, 2450)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	if err := reg.Register("a", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	ten, err := reg.tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if _, err := ten.resident(); !errors.Is(err, ErrClosed) {
		t.Fatalf("compile after Close returned %v, want ErrClosed", err)
	}
	if ten.srv.Load() != nil || reg.Counters().Compiles != 0 {
		t.Fatal("tenant compiled after Close")
	}
}

// TestRegistryRegisterValidation pins the registration boundary: junk
// blobs, empty and oversized names, nil schedules and duplicates all fail.
func TestRegistryRegisterValidation(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 1, 2500)
	blob := blobFor(t, f.model)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	if err := reg.Register("", blob, f.dev, f.sched); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	long := make([]byte, MaxModelIDLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if err := reg.Register(string(long), blob, f.dev, f.sched); err == nil {
		t.Fatal("tenant name beyond the wire's model-ID limit accepted")
	}
	if err := reg.Register("m", blob, f.dev, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if err := reg.Register("m", []byte("not a model"), f.dev, f.sched); err == nil {
		t.Fatal("junk blob accepted")
	}
	if err := reg.Register("m", blob, f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("m", blob, f.dev, f.sched); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if err := reg.Deploy("ghost", blob); err == nil {
		t.Fatal("deploy to an unregistered tenant accepted")
	}
	if err := reg.Deploy("m", []byte("junk")); err == nil {
		t.Fatal("deploy of a junk blob accepted")
	}
	// The registered blob is a defensive copy: mutating the caller's slice
	// must not corrupt the tenant.
	blob[len(blob)-1] ^= 0xFF
	if err := reg.Warm("m"); err != nil {
		t.Fatalf("tenant compiled from caller-mutated blob: %v", err)
	}
}

// TestRegistryWarm pins eager compilation: Warm compiles once, a second
// Warm and subsequent requests reuse the resident server.
func TestRegistryWarm(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 2, 2600)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	if err := reg.Register("m", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if c := reg.Counters().Compiles; c != 0 {
		t.Fatalf("registration compiled eagerly (%d compiles)", c)
	}
	if err := reg.Warm("m"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm("m"); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Predict(context.Background(), "m", f.sample(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != f.want[0] {
		t.Fatalf("class %d, want %d", got, f.want[0])
	}
	if c := reg.Counters().Compiles; c != 1 {
		t.Fatalf("%d compiles after Warm+Warm+Predict, want 1", c)
	}
}

// TestRegistryETag pins the zoo-watch bookkeeping the hpnn-serve poll loop
// depends on.
func TestRegistryETag(t *testing.T) {
	f := newFixture(t, core.MLP, 8, 1, 2700)
	reg := NewRegistry(tpu.DefaultConfig(), registryConfig())
	defer reg.Close()
	if err := reg.Register("m", blobFor(t, f.model), f.dev, f.sched); err != nil {
		t.Fatal(err)
	}
	if got := reg.ETag("m"); got != "" {
		t.Fatalf("fresh tenant ETag %q, want empty", got)
	}
	reg.SetETag("m", `"v7"`)
	if got := reg.ETag("m"); got != `"v7"` {
		t.Fatalf("ETag %q, want %q", got, `"v7"`)
	}
	if got := reg.ETag("ghost"); got != "" {
		t.Fatalf("unknown tenant ETag %q, want empty", got)
	}
}
