// Package serve is the deployment layer of the reproduction: a concurrent
// batched inference service over the hardware-locked TPU path. The paper's
// trusted accelerator serves authorized end-users; this package makes that
// story operational — many clients issue Predict calls, and N worker
// shards take them from one bounded queue in batches and execute them on
// the simulated locked hardware.
//
// Topology and ownership:
//
//   - Admitted requests wait in one bounded FIFO queue guarded by the
//     server's mutex. An idle shard sleeps on a condition variable; an
//     admission wakes it, and it takes everything queued, up to MaxBatch.
//     A lone request therefore runs at once, and requests that queue while
//     every shard is busy leave together in the next batch.
//   - The tenant's model compiles once into a read-only tpu.Program:
//     folded weights, their int8 and widened codes, the lock column
//     assignments, and a weight-space scheme's unlocked clone. Each of the
//     Shards worker goroutines owns an Accelerator bound to that program,
//     with its own state — output buffers, scratch, sign masks and MMU
//     counters. Nothing mutable is shared between shards, so the per-shard
//     zero-allocation invariant of the execution engine holds under full
//     concurrency. Each shard's state is sized for MaxBatch from the
//     program's shapes and sealed before any inference runs.
//   - Results return over a per-request buffered channel; callers select
//     on it against their context, so cancellation never blocks a shard.
//     A cancelled caller withdraws its request from the queue if no shard
//     has taken it yet, which frees the slot at once; the mutex decides
//     which of the two owns the sample, so no shard reads it after Predict
//     returns.
//
// Backpressure is the bounded queue: when it is full, Predict fails fast
// with ErrOverloaded rather than queueing unbounded work. Close drains
// every admitted request through the shards before returning.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpnn/internal/core"
	"hpnn/internal/keys"
	"hpnn/internal/lockscheme"
	"hpnn/internal/schedule"
	"hpnn/internal/tensor"
	"hpnn/internal/tpu"
)

// ErrOverloaded is returned by Predict when the bounded request queue is
// full. Clients should back off and retry; the server sheds load instead of
// queueing unbounded work.
var ErrOverloaded = errors.New("serve: server overloaded, request queue full")

// ErrClosed is returned by Predict after Close has begun.
var ErrClosed = errors.New("serve: server closed")

// ErrRetry marks a transient routing failure in the multi-tenant registry —
// a request that kept landing on tenants mid-swap or mid-eviction. Like
// ErrOverloaded it travels as a retry-status response on the wire; clients
// should back off and resubmit.
var ErrRetry = errors.New("serve: tenant swapping, retry")

// Config tunes the batching service. The zero value selects sensible
// defaults for every field.
type Config struct {
	// Shards is the number of worker shards, each owning a private
	// compiled accelerator. Default: GOMAXPROCS, capped at 8.
	Shards int
	// MaxBatch is the largest number of queued requests one shard takes
	// for one dispatch. Default 8.
	MaxBatch int
	// QueueDepth bounds the admitted requests no shard has taken yet; a
	// full queue makes Predict fail with ErrOverloaded. Default
	// 4·MaxBatch·Shards.
	QueueDepth int

	// testBatchHook, when set, runs on a shard after it takes a batch from
	// the queue and before it runs it. Tests use it to park shards
	// deterministically (e.g. to hold requests in the queue); never set in
	// production.
	testBatchHook func()
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch * c.Shards
	}
	return c
}

// response is the terminal state of one request.
type response struct {
	class int
	err   error
}

// request is one in-flight Predict call. The done channel is buffered so a
// shard completes a request without waiting for its caller.
type request struct {
	ctx   context.Context
	data  []float64 // the sample's backing values, valid until completion
	start time.Time
	done  chan response
}

// shard is one worker's private execution state: an accelerator bound to
// the server's program (its state: output buffers, scratch, sign masks,
// counters) plus a reusable batch-view header and pre-sized gather buffers,
// so dispatching a micro-batch performs no allocation.
type shard struct {
	acc   *tpu.Accelerator
	view  tensor.Tensor
	live  []*request // [MaxBatch] requests taken for the current dispatch
	batch []float64  // [MaxBatch·feat] contiguous sample gather buffer
	preds []int      // [MaxBatch] per-dispatch predictions
}

// Server is a concurrent batched inference service over the locked TPU
// path. Create with New, submit with Predict / PredictBatch, stop with
// Close. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	model *core.Model
	prog  *tpu.Program // compiled once, shared read-only by every shard
	c     int          // expected sample shape
	h, w  int
	feat  int

	// mu guards queue and closed. Admission, a shard's take and a
	// cancelled caller's withdrawal all hold it, so a queued request
	// belongs to exactly one of a shard and its caller.
	mu     sync.Mutex
	ready  sync.Cond  // on mu: a request was admitted, or the server closed
	queue  []*request // admitted, not yet taken, in arrival order; cap QueueDepth
	closed bool
	wg     sync.WaitGroup // the shards

	shards []*shard

	reqPool sync.Pool

	stats statsRec
}

// New builds a serving instance for one model on simulated locked hardware.
// The model compiles once into a program every shard shares; each shard is
// an accelerator bound to the same sealed key device and private schedule,
// its state sized for MaxBatch and sealed before any inference runs, so
// steady-state requests allocate nothing. dev may be nil to serve on
// commodity hardware without the HPNN key — the paper's attacker scenario,
// useful for differential experiments.
func New(m *core.Model, acfg tpu.Config, dev *keys.Device, sched *schedule.Schedule, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	scheme, err := lockscheme.Get(m.Scheme)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	prog, err := tpu.NewProgram(scheme, acfg, dev, sched, m)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		model: m,
		prog:  prog,
		c:     m.Config.InC, h: m.Config.InH, w: m.Config.InW,
		feat:  m.Config.InC * m.Config.InH * m.Config.InW,
		queue: make([]*request, 0, cfg.QueueDepth),
	}
	s.ready.L = &s.mu
	s.reqPool.New = func() any { return &request{done: make(chan response, 1)} }
	for i := 0; i < cfg.Shards; i++ {
		acc, err := tpu.NewAcceleratorFor(scheme, acfg, dev, sched)
		if err == nil {
			err = acc.Bind(prog, cfg.MaxBatch)
		}
		if err != nil {
			s.release()
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		acc.Seal()
		s.shards = append(s.shards, &shard{
			acc:   acc,
			live:  make([]*request, cfg.MaxBatch),
			batch: make([]float64, cfg.MaxBatch*s.feat),
			preds: make([]int, cfg.MaxBatch),
		})
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.workerLoop(sh)
	}
	return s, nil
}

// checkSample validates a single sample's shape against the model.
func (s *Server) checkSample(x *tensor.Tensor) error {
	if len(x.Shape) != 3 || x.Shape[0] != s.c || x.Shape[1] != s.h || x.Shape[2] != s.w {
		return fmt.Errorf("serve: sample shape %v, want [%d %d %d]", x.Shape, s.c, s.h, s.w)
	}
	return nil
}

// enqueue admits reqs in order under one lock, as many as the bounded
// queue has room for, and wakes an idle shard. n is the number admitted;
// the error is ErrClosed after Close, or ErrOverloaded when some of reqs
// did not fit.
func (s *Server) enqueue(reqs ...*request) (n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n = min(len(reqs), s.cfg.QueueDepth-len(s.queue))
	if n > 0 {
		s.queue = append(s.queue, reqs[:n]...)
		s.ready.Signal()
	}
	if n < len(reqs) {
		s.stats.overloaded.Add(uint64(len(reqs) - n))
		return n, ErrOverloaded
	}
	return n, nil
}

// withdraw takes req back out of the queue if no shard has taken it yet,
// and reports whether it did.
func (s *Server) withdraw(req *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == req {
			last := len(s.queue) - 1
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[last] = nil
			s.queue = s.queue[:last]
			return true
		}
	}
	return false
}

func (s *Server) getReq(ctx context.Context, data []float64) *request {
	req := s.reqPool.Get().(*request)
	req.ctx = ctx
	req.data = data
	req.start = time.Now()
	return req
}

// putReq recycles a request that no shard holds: answered, withdrawn, or
// never admitted.
func (s *Server) putReq(req *request) {
	req.ctx, req.data = nil, nil
	s.reqPool.Put(req)
}

// Predict classifies one sample x ([C, H, W], matching the model's input)
// on the locked hardware, blocking until a shard completes it, the context
// is done, or the server sheds it. x.Data must stay untouched until Predict
// returns; after that no shard reads it. The error is ErrOverloaded when
// the queue is full, ErrClosed after Close, or the context's error on
// cancellation.
func (s *Server) Predict(ctx context.Context, x *tensor.Tensor) (int, error) {
	if err := s.checkSample(x); err != nil {
		return -1, err
	}
	req := s.getReq(ctx, x.Data)
	if _, err := s.enqueue(req); err != nil {
		s.putReq(req)
		return -1, err
	}
	r := s.await(ctx, req)
	if r.err != nil {
		return -1, r.err
	}
	return r.class, nil
}

// await waits for req's response and recycles req. When ctx ends first
// and req is still queued, the caller withdraws it and the response is
// ctx's error: no shard ever saw it. When a shard has already taken it,
// the shard may be reading data, so await waits for its answer — at most
// one batch. Either way no shard touches req.data once await returns.
func (s *Server) await(ctx context.Context, req *request) (r response) {
	select {
	case r = <-req.done:
	case <-ctx.Done():
		if s.withdraw(req) {
			s.stats.canceled.Add(1)
			r = response{err: ctx.Err()}
		} else {
			r = <-req.done
		}
	}
	s.putReq(req)
	return r
}

// PredictBatch classifies a batch x ([N, C, H, W]) and returns the classes
// in order. The whole batch is admitted under one lock, so on an idle
// server it leaves in batches of MaxBatch; a batch larger than the free
// queue is admitted in part and fails with ErrOverloaded. On any
// per-sample failure (overload, cancellation) the first error is returned;
// admitted samples still drain through the shards.
func (s *Server) PredictBatch(ctx context.Context, x *tensor.Tensor) ([]int, error) {
	if len(x.Shape) != 4 || x.Shape[1] != s.c || x.Shape[2] != s.h || x.Shape[3] != s.w {
		return nil, fmt.Errorf("serve: batch shape %v, want [N %d %d %d]", x.Shape, s.c, s.h, s.w)
	}
	reqs := make([]*request, x.Shape[0])
	for i := range reqs {
		reqs[i] = s.getReq(ctx, x.Data[i*s.feat:(i+1)*s.feat])
	}
	n, firstErr := s.enqueue(reqs...)
	for _, req := range reqs[n:] {
		s.putReq(req)
	}
	out := make([]int, n)
	for i, req := range reqs[:n] {
		r := s.await(ctx, req)
		out[i] = r.class
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// workerLoop runs one shard: it sleeps until requests are queued, takes up
// to MaxBatch of them in arrival order, wakes another shard if more
// remain, and runs its batch outside the lock. It returns once the server
// is closed and the queue has drained.
func (s *Server) workerLoop(sh *shard) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.ready.Wait()
		}
		k := copy(sh.live, s.queue)
		rest := copy(s.queue, s.queue[k:])
		clear(s.queue[rest:])
		s.queue = s.queue[:rest]
		if rest > 0 {
			s.ready.Signal()
		}
		s.mu.Unlock()
		if k == 0 {
			return
		}
		if s.cfg.testBatchHook != nil {
			s.cfg.testBatchHook()
		}
		s.dispatch(sh, sh.live[:k])
	}
}

// dispatch runs the requests one shard took. Those whose context died
// while queued are completed with the context error without touching the
// hardware or their data; the rest are gathered into the shard's
// contiguous buffer and run as one call on the GEMM tier.
func (s *Server) dispatch(sh *shard, taken []*request) {
	k := 0
	for _, req := range taken {
		if err := req.ctx.Err(); err != nil {
			s.finish(req, -1, err)
			continue
		}
		copy(sh.batch[k*s.feat:(k+1)*s.feat], req.data)
		taken[k] = req
		k++
	}
	if k > 0 {
		s.stats.batches.Add(1)
		s.stats.batched.Add(uint64(k))
		x := tensor.ViewInto(&sh.view, sh.batch[:k*s.feat], k, s.c, s.h, s.w)
		err := sh.acc.PredictBatchInto(sh.preds[:k], s.model, x)
		for i, req := range taken[:k] {
			if err != nil {
				s.finish(req, -1, err)
			} else {
				s.finish(req, sh.preds[i], nil)
			}
		}
	}
	clear(taken)
}

// finish records the outcome and completes the request. The buffered done
// channel makes the send non-blocking.
func (s *Server) finish(req *request, class int, err error) {
	switch {
	case err == nil:
		s.stats.completed.Add(1)
		s.stats.recordLatency(time.Since(req.start))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.stats.canceled.Add(1)
	default:
		s.stats.errors.Add(1)
	}
	req.done <- response{class: class, err: err}
}

// Close stops admitting requests, lets the shards drain every admitted
// request, waits for them to exit and returns the final statistics. Close
// is idempotent.
func (s *Server) Close() Stats {
	s.mu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return s.Stats()
}

// release zeroes and drops every shard's state and gather buffer, then
// the shared program, returning their memory to the garbage collector. Only
// valid after Close has drained the pipeline (or before any shard started);
// the registry's eviction path (close + release) is the only other caller.
// A released server stays closed — tenants build a fresh Server when they
// recompile.
func (s *Server) release() {
	for _, sh := range s.shards {
		sh.acc.Release()
		clear(sh.batch)
		sh.batch, sh.preds, sh.live = nil, nil, nil
	}
	s.prog.Release()
}

// HardwareStats sums the simulated-hardware activity counters across all
// shards: total MACs, cycles and locked outputs of the served traffic.
func (s *Server) HardwareStats() tpu.Stats {
	var total tpu.Stats
	for _, sh := range s.shards {
		total.Add(sh.acc.Stats())
	}
	return total
}

// WorkspaceBytes reports the server's accelerator memory: the shared
// program (weight codes, folded weights, a weight-space scheme's unlocked
// clone) once, plus every shard's state (activation buffers, scratch, sign
// masks).
func (s *Server) WorkspaceBytes() int {
	total := s.prog.Bytes()
	for _, sh := range s.shards {
		total += sh.acc.WorkspaceBytes()
	}
	return total
}

// --- statistics --------------------------------------------------------------

// latRing sizes the latency reservoir: percentiles are computed over the
// most recent latRing completed requests.
const latRing = 4096

type statsRec struct {
	completed  atomic.Uint64
	errors     atomic.Uint64
	canceled   atomic.Uint64
	overloaded atomic.Uint64
	batches    atomic.Uint64
	batched    atomic.Uint64

	latIdx atomic.Uint64
	lat    [latRing]atomic.Int64
}

func (r *statsRec) recordLatency(d time.Duration) {
	i := r.latIdx.Add(1) - 1
	r.lat[i%latRing].Store(int64(d))
}

// Stats is a snapshot of the service counters and latency percentiles.
type Stats struct {
	// Completed counts successfully answered requests; Errors counts
	// hardware/validation failures; Canceled counts requests whose context
	// died while queued or in flight; Overloaded counts shed requests.
	Completed, Errors, Canceled, Overloaded uint64
	// Batches is the number of batches the shards ran on the hardware and
	// MeanBatch the average number of requests in one.
	Batches   uint64
	MeanBatch float64
	// Latency percentiles over the most recent completed requests
	// (enqueue→completion, as observed by the shard).
	P50, P90, P99, Max time.Duration
}

// String renders the snapshot for CLI shutdown reports.
func (s Stats) String() string {
	return fmt.Sprintf(
		"served %d requests (%d errors, %d canceled, %d shed) in %d batches (mean %.2f)\nlatency p50 %v  p90 %v  p99 %v  max %v",
		s.Completed, s.Errors, s.Canceled, s.Overloaded, s.Batches, s.MeanBatch,
		s.P50, s.P90, s.P99, s.Max)
}

// Stats snapshots the current counters. Safe to call at any time, including
// while serving; percentiles cover the most recent latRing completions.
func (s *Server) Stats() Stats {
	st := Stats{
		Completed:  s.stats.completed.Load(),
		Errors:     s.stats.errors.Load(),
		Canceled:   s.stats.canceled.Load(),
		Overloaded: s.stats.overloaded.Load(),
		Batches:    s.stats.batches.Load(),
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.stats.batched.Load()) / float64(st.Batches)
	}
	n := int(s.stats.latIdx.Load())
	if n > latRing {
		n = latRing
	}
	if n == 0 {
		return st
	}
	lats := make([]int64, n)
	for i := 0; i < n; i++ {
		lats[i] = s.lat(i)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(n-1))
		return time.Duration(lats[i])
	}
	st.P50, st.P90, st.P99, st.Max = pct(0.50), pct(0.90), pct(0.99), time.Duration(lats[n-1])
	return st
}

func (s *Server) lat(i int) int64 { return s.stats.lat[i].Load() }
