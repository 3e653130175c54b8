package serve

// Multi-tenant model-zoo serving: a Registry routes requests by model ID to
// per-model tenants, each the full single-model serving stack (a request
// queue + per-shard compiled/sealed accelerators) built lazily from a
// serialized model blob. This is the deployment story of the paper at fleet scale: many
// obfuscated models published through the zoo, each usable only with its own
// device-resident key, all served from one process.
//
// Ownership and isolation:
//
//   - A Tenant owns its blob, its version counter, its private schedule and
//     its trusted key device. Devices are bound through a keys.Ring, whose
//     one-device-one-model invariant keeps key material from ever crossing
//     tenants — the trust boundary of the whole design.
//   - Residency is lazy: the first request for a tenant decodes the blob,
//     compiles its one program and seals a Server (shards bound to the
//     program, zero-alloc steady state), and later requests route to it
//     over an atomic pointer — no locks on the hot path.
//   - The Registry holds residents under a memory budget: when a compile
//     pushes the summed tenant footprints (each program once, plus every
//     shard's state) past MaxWorkspaceBytes, least-recently-used tenants
//     are evicted — drained through Close, then wiped and released back to
//     the allocator. Evicted tenants recompile on their next hit.
//   - Deploy is the zero-downtime hot-swap: the incoming version compiles
//     off to the side while the old server keeps answering, the routing
//     pointer flips atomically, and the old server drains its in-flight
//     batches before its program and shard states are released. Requests
//     that raced into the old server during the flip are transparently
//     re-routed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/modelio"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

// routeAttempts bounds how often one request re-resolves its tenant after
// landing on a server closed by a concurrent swap or eviction. Each retry
// needs a fresh swap/eviction to race with, so more than a couple is
// pathological churn; the request then fails with ErrRetry.
const routeAttempts = 8

// RegistryConfig tunes the multi-tenant registry. The zero value serves
// with default per-tenant settings and no memory budget.
type RegistryConfig struct {
	// Tenant is the serving configuration every tenant's Server is built
	// with (shards, batch size, queue depth).
	Tenant Config
	// MaxWorkspaceBytes bounds the summed accelerator memory of resident
	// tenants — each tenant's compiled program (weight codes, biases, a
	// weight-space scheme's unlocked clone) once, plus every shard's state
	// (activation buffers, scratch, sign masks); exceeding it evicts
	// least-recently-used tenants (drain + release). 0 means unbudgeted.
	// The newest tenant is never evicted, so one oversized model still
	// serves.
	MaxWorkspaceBytes int
	// DefaultModel is where v1 frames and empty model IDs route. Empty
	// selects the sole registered tenant when there is exactly one.
	DefaultModel string
}

// Tenant is one served model: its published blob, key device, schedule and
// (when resident) its compiled serving stack. Created through
// Registry.Register; all state transitions go through the registry.
type Tenant struct {
	name string
	reg  *Registry

	// mu serializes the expensive transitions — compile, evict, swap — so
	// the routing pointer only ever flips between consistent states.
	mu      sync.Mutex
	blob    []byte
	scheme  string
	version uint64
	etag    string
	dev     *keys.Device
	sched   *schedule.Schedule

	// srv is the routing entry: non-nil when resident. Reads are lock-free;
	// writes happen under mu.
	srv     atomic.Pointer[Server]
	bytes   atomic.Int64  // resident workspace footprint
	lastUse atomic.Uint64 // registry clock tick of the last route

	// Folded totals from servers retired by swap, eviction or shutdown, so
	// per-tenant accounting survives residency churn. Guarded by mu.
	retired   Stats
	retiredHW tpu.Stats
}

// TenantInfo is a point-in-time report of one tenant: identity, residency,
// and the cumulative serving/hardware counters across every server this
// tenant has had (current resident included).
type TenantInfo struct {
	Name           string
	Scheme         string
	Version        uint64
	Resident       bool
	WorkspaceBytes int
	Stats          Stats
	Hardware       tpu.Stats
}

// RegistryCounters snapshots the registry-level activity counters.
type RegistryCounters struct {
	// Compiles counts lazy tenant compilations (cold starts and
	// post-eviction recompiles). Evictions counts budget-driven tenant
	// releases. Swaps counts completed Deploy hot-swaps. Reroutes counts
	// requests transparently re-routed after racing a swap or eviction.
	Compiles, Evictions, Swaps, Reroutes uint64
}

// Registry routes inference requests to a fleet of tenants by model ID.
// Create with NewRegistry, add models with Register, serve with Predict /
// PredictBatch, roll new versions with Deploy, stop with Close. All methods
// are safe for concurrent use.
type Registry struct {
	acfg tpu.Config
	cfg  RegistryConfig
	ring *keys.Ring

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	clock    atomic.Uint64
	compiles atomic.Uint64
	evicts   atomic.Uint64
	swaps    atomic.Uint64
	reroutes atomic.Uint64
}

// NewRegistry builds an empty multi-tenant registry. acfg sizes the
// simulated accelerator every tenant's shards are built on.
func NewRegistry(acfg tpu.Config, cfg RegistryConfig) *Registry {
	return &Registry{
		acfg:    acfg,
		cfg:     cfg,
		ring:    keys.NewRing(),
		tenants: make(map[string]*Tenant),
	}
}

// Register adds a model under name from its serialized blob. The blob is
// validated and defensively copied; compilation is deferred to the first
// request (or an explicit Warm). dev is the tenant's trusted key device —
// binding a device already serving another tenant fails (keys never cross
// tenants); nil serves on commodity hardware. sched is the tenant's private
// hardware schedule.
func (r *Registry) Register(name string, blob []byte, dev *keys.Device, sched *schedule.Schedule) error {
	if name == "" {
		return fmt.Errorf("serve: registry tenant requires a name")
	}
	if len(name) > MaxModelIDLen {
		return fmt.Errorf("serve: tenant name of %d bytes exceeds wire limit %d", len(name), MaxModelIDLen)
	}
	if sched == nil {
		return fmt.Errorf("serve: tenant %q requires a schedule", name)
	}
	_, scheme, err := decodeBlob(blob)
	if err != nil {
		return fmt.Errorf("serve: tenant %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.tenants[name]; dup {
		return fmt.Errorf("serve: tenant %q already registered (use Deploy to roll a new version)", name)
	}
	if err := r.ring.Bind(name, dev); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	r.tenants[name] = &Tenant{
		name:   name,
		reg:    r,
		blob:   append([]byte(nil), blob...),
		scheme: scheme,
		dev:    dev,
		sched:  sched,
	}
	return nil
}

// decodeBlob rejects junk at the API boundary: it decodes the full model
// and sniffs the scheme the zoo records carry.
func decodeBlob(blob []byte) (*core.Model, string, error) {
	scheme, err := modelio.SniffScheme(blob)
	if err != nil {
		return nil, "", err
	}
	m, err := modelio.Load(bytes.NewReader(blob))
	if err != nil {
		return nil, "", err
	}
	return m, scheme, nil
}

// tenant resolves a model ID to its tenant, applying default routing: ""
// routes to DefaultModel, or to the sole tenant when none is configured.
func (r *Registry) tenant(model string) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if model == "" {
		model = r.cfg.DefaultModel
	}
	if model == "" {
		if len(r.tenants) != 1 {
			return nil, fmt.Errorf("serve: no model ID and no default model among %d tenants", len(r.tenants))
		}
		//hpnn:allow(determinism) single-entry map read
		for _, t := range r.tenants {
			return t, nil
		}
	}
	t, ok := r.tenants[model]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", model)
	}
	return t, nil
}

// resident returns the tenant's serving stack, compiling and sealing it
// from the blob on first use (and after eviction). Concurrent first
// requests for the same tenant compile once; the rest wait on mu. Once the
// registry is closed it compiles nothing: Close marks the registry closed
// before it evicts each tenant under mu, so a request that resolved its
// tenant before Close cannot revive a server Close would never drain.
func (t *Tenant) resident() (*Server, error) {
	if s := t.srv.Load(); s != nil {
		return s, nil
	}
	t.mu.Lock()
	if s := t.srv.Load(); s != nil {
		t.mu.Unlock()
		return s, nil
	}
	if t.reg.isClosed() {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	srv, bytes, err := t.compileBlobLocked()
	if err != nil {
		t.mu.Unlock()
		return nil, fmt.Errorf("serve: compiling tenant %q: %w", t.name, err)
	}
	t.bytes.Store(int64(bytes))
	t.srv.Store(srv)
	t.mu.Unlock()
	t.reg.compiles.Add(1)
	t.reg.maybeEvict(t)
	return srv, nil
}

// compileBlobLocked decodes the tenant's blob and builds a sealed Server
// from it. Caller holds t.mu.
func (t *Tenant) compileBlobLocked() (*Server, int, error) {
	m, err := modelio.Load(bytes.NewReader(t.blob))
	if err != nil {
		return nil, 0, err
	}
	return t.compileLocked(m)
}

// compileLocked builds a sealed Server for a decoded model. Caller holds
// t.mu.
func (t *Tenant) compileLocked(m *core.Model) (*Server, int, error) {
	srv, err := New(m, t.reg.acfg, t.dev, t.sched, t.reg.cfg.Tenant)
	if err != nil {
		return nil, 0, err
	}
	return srv, srv.WorkspaceBytes(), nil
}

// retire folds a server's final counters into the tenant's cumulative
// totals. Caller holds t.mu and has already Closed srv.
func (t *Tenant) retire(st Stats, hw tpu.Stats) {
	t.retired.Completed += st.Completed
	t.retired.Errors += st.Errors
	t.retired.Canceled += st.Canceled
	t.retired.Overloaded += st.Overloaded
	t.retired.Batches += st.Batches
	t.retiredHW.Add(hw)
}

// evict drains and releases the tenant's resident server, if any. Holding
// mu through the drain blocks a concurrent recompile until the old server's
// memory is actually free.
func (t *Tenant) evict() {
	t.mu.Lock()
	defer t.mu.Unlock()
	srv := t.srv.Swap(nil)
	if srv == nil {
		return
	}
	st := srv.Close()
	t.retire(st, srv.HardwareStats())
	srv.release()
	t.bytes.Store(0)
	t.reg.evicts.Add(1)
}

// maybeEvict enforces the workspace budget: while resident tenants sum past
// MaxWorkspaceBytes, the least-recently-used tenant other than keep is
// drained and released. Runs without holding keep's lock, so compiles never
// deadlock against evictions.
func (r *Registry) maybeEvict(keep *Tenant) {
	if r.cfg.MaxWorkspaceBytes <= 0 {
		return
	}
	for {
		r.mu.Lock()
		total := 0
		var victim *Tenant
		//hpnn:allow(determinism) scan for minimum lastUse; order-independent
		for _, t := range r.tenants {
			b := int(t.bytes.Load())
			if b == 0 {
				continue
			}
			total += b
			if t == keep {
				continue
			}
			if victim == nil || t.lastUse.Load() < victim.lastUse.Load() {
				victim = t
			}
		}
		r.mu.Unlock()
		if total <= r.cfg.MaxWorkspaceBytes || victim == nil {
			return
		}
		victim.evict()
	}
}

// Warm compiles and seals the named tenant eagerly, so its first request
// pays no cold-start latency.
func (r *Registry) Warm(model string) error {
	t, err := r.tenant(model)
	if err != nil {
		return err
	}
	t.lastUse.Store(r.clock.Add(1))
	_, err = t.resident()
	return err
}

// Predict routes one sample to the named model's tenant and classifies it
// on that tenant's locked hardware. model "" follows default routing (v1
// clients). A request that races a hot-swap or eviction is transparently
// re-routed to the tenant's new server; sustained churn surfaces as
// ErrRetry. Other errors are the single-model Server's: ErrOverloaded on a
// full tenant queue, shape errors, the context's error on cancellation.
func (r *Registry) Predict(ctx context.Context, model string, x *tensor.Tensor) (int, error) {
	t, err := r.tenant(model)
	if err != nil {
		return -1, err
	}
	for attempt := 0; attempt < routeAttempts; attempt++ {
		srv, err := t.resident()
		if err != nil {
			return -1, err
		}
		t.lastUse.Store(r.clock.Add(1))
		class, err := srv.Predict(ctx, x)
		if err != nil && errors.Is(err, ErrClosed) {
			// The server closed beneath us: a swap or eviction retired it
			// between routing and enqueue. Re-resolve and resubmit — this is
			// what makes a hot-swap lose zero in-flight requests.
			r.reroutes.Add(1)
			if r.isClosed() {
				return -1, ErrClosed
			}
			continue
		}
		return class, err
	}
	return -1, ErrRetry
}

// PredictBatch routes a batch ([N, C, H, W]) to the named model's tenant
// and returns per-sample classes, re-routing like Predict when the batch
// races a swap or eviction.
func (r *Registry) PredictBatch(ctx context.Context, model string, x *tensor.Tensor) ([]int, error) {
	t, err := r.tenant(model)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < routeAttempts; attempt++ {
		srv, err := t.resident()
		if err != nil {
			return nil, err
		}
		t.lastUse.Store(r.clock.Add(1))
		out, err := srv.PredictBatch(ctx, x)
		if err != nil && errors.Is(err, ErrClosed) {
			r.reroutes.Add(1)
			if r.isClosed() {
				return nil, ErrClosed
			}
			continue
		}
		return out, err
	}
	return nil, ErrRetry
}

// Deploy rolls a new version of an already-registered tenant with zero
// downtime: the new blob compiles and seals off to the side while the old
// server keeps answering, the routing entry swaps atomically, and the old
// server drains its in-flight batches before its program is released. A
// non-resident tenant just gets the new blob (it compiles on next hit).
// Deploy returns after the old version has fully drained — a prediction
// stream through the tenant answers with the old version before the swap
// point and the new version after it, and no request in between is dropped.
func (r *Registry) Deploy(name string, blob []byte) error {
	m, scheme, err := decodeBlob(blob)
	if err != nil {
		return fmt.Errorf("serve: deploying %q: %w", name, err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	t, ok := r.tenants[name]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: deploy of unregistered model %q (Register first)", name)
	}

	t.mu.Lock()
	var newSrv *Server
	if t.srv.Load() != nil {
		srv, bytes, err := t.compileLocked(m)
		if err != nil {
			t.mu.Unlock()
			return fmt.Errorf("serve: deploying %q: %w", name, err)
		}
		newSrv = srv
		t.bytes.Store(int64(bytes))
	}
	t.blob = append(t.blob[:0], blob...)
	t.scheme = scheme
	t.version++
	old := t.srv.Swap(newSrv) // the atomic routing flip
	if old != nil {
		st := old.Close() // drain every in-flight batch of the old version
		t.retire(st, old.HardwareStats())
		old.release()
	}
	t.mu.Unlock()
	r.swaps.Add(1)
	if newSrv != nil {
		r.maybeEvict(t)
	}
	return nil
}

// SetETag records the zoo ETag the tenant's current blob was fetched under;
// ETag returns it. The hpnn-serve watch loop uses the pair to poll the zoo
// cheaply: an unchanged ETag skips the download and the swap.
func (r *Registry) SetETag(name, etag string) {
	r.mu.Lock()
	t, ok := r.tenants[name]
	r.mu.Unlock()
	if ok {
		t.mu.Lock()
		t.etag = etag
		t.mu.Unlock()
	}
}

// ETag returns the recorded zoo ETag for name ("" when unknown).
func (r *Registry) ETag(name string) string {
	r.mu.Lock()
	t, ok := r.tenants[name]
	r.mu.Unlock()
	if !ok {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.etag
}

// Names lists the registered model IDs, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.tenants))
	//hpnn:allow(determinism) keys are collected then sorted below
	for n := range r.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Tenants reports every tenant's identity, residency and cumulative
// counters, sorted by name.
func (r *Registry) Tenants() []TenantInfo {
	r.mu.Lock()
	list := make([]*Tenant, 0, len(r.tenants))
	//hpnn:allow(determinism) values are collected then sorted below
	for _, t := range r.tenants {
		list = append(list, t)
	}
	r.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	out := make([]TenantInfo, 0, len(list))
	for _, t := range list {
		out = append(out, t.info())
	}
	return out
}

// info snapshots one tenant, folding the live server's counters (when
// resident) into the retired totals.
func (t *Tenant) info() TenantInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	info := TenantInfo{
		Name:     t.name,
		Scheme:   t.scheme,
		Version:  t.version,
		Stats:    t.retired,
		Hardware: t.retiredHW,
	}
	if srv := t.srv.Load(); srv != nil {
		info.Resident = true
		info.WorkspaceBytes = int(t.bytes.Load())
		live := srv.Stats()
		info.Stats.Completed += live.Completed
		info.Stats.Errors += live.Errors
		info.Stats.Canceled += live.Canceled
		info.Stats.Overloaded += live.Overloaded
		info.Stats.Batches += live.Batches
		info.Stats.MeanBatch = live.MeanBatch
		info.Stats.P50, info.Stats.P90, info.Stats.P99, info.Stats.Max = live.P50, live.P90, live.P99, live.Max
		info.Hardware.Add(srv.HardwareStats())
	}
	if info.Stats.Batches > 0 && info.Stats.MeanBatch == 0 {
		info.Stats.MeanBatch = float64(info.Stats.Completed) / float64(info.Stats.Batches)
	}
	return info
}

// WorkspaceBytes sums the resident tenants' accelerator memory — the
// number the eviction budget is enforced against.
func (r *Registry) WorkspaceBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	//hpnn:allow(determinism) order-independent sum
	for _, t := range r.tenants {
		total += int(t.bytes.Load())
	}
	return total
}

// HardwareStats sums simulated-hardware activity across every tenant,
// retired servers included.
func (r *Registry) HardwareStats() tpu.Stats {
	var total tpu.Stats
	for _, info := range r.Tenants() {
		total.Add(info.Hardware)
	}
	return total
}

// Counters snapshots the registry-level activity counters.
func (r *Registry) Counters() RegistryCounters {
	return RegistryCounters{
		Compiles:  r.compiles.Load(),
		Evictions: r.evicts.Load(),
		Swaps:     r.swaps.Load(),
		Reroutes:  r.reroutes.Load(),
	}
}

func (r *Registry) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Close stops routing, drains every resident tenant through its server's
// Close and releases their programs. It returns the final per-tenant
// reports.
// Close is idempotent.
func (r *Registry) Close() []TenantInfo {
	r.mu.Lock()
	r.closed = true
	list := make([]*Tenant, 0, len(r.tenants))
	//hpnn:allow(determinism) values are collected then sorted in Tenants
	for _, t := range r.tenants {
		list = append(list, t)
	}
	r.mu.Unlock()
	for _, t := range list {
		t.evict()
	}
	return r.Tenants()
}
