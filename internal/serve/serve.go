// Package serve is the deployment layer of the reproduction: a concurrent
// batched inference service over the hardware-locked TPU path. The paper's
// trusted accelerator serves authorized end-users; this package makes that
// story operational — many clients issue Predict calls, a deadline-based
// micro-batcher coalesces them, and N worker shards execute them on the
// simulated locked hardware.
//
// Topology and ownership:
//
//   - One batcher goroutine drains a bounded request queue, coalescing up
//     to MaxBatch requests or waiting at most MaxWait after the first —
//     whichever comes first — before handing the batch to the shards.
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
//     A per-request claim decides whether the shard or a cancelled caller
//     owns the sample, so no shard reads it after Predict returns.
//
// Backpressure is a bounded queue: when it is full, Predict fails fast
// with ErrOverloaded rather than queueing unbounded work. Close drains
// every accepted request through the shards before returning.
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
	// MaxBatch is the largest number of requests coalesced into one
	// dispatch. Default 8.
	MaxBatch int
	// MaxWait bounds how long the batcher holds an underfull batch after
	// its first request arrives. Default 200µs.
	MaxWait time.Duration
	// QueueDepth bounds the pending-request queue; a full queue makes
	// Predict fail with ErrOverloaded. Default 4·MaxBatch·Shards.
	QueueDepth int
	// Scheme selects the lock-scheme backend the shards lower (see package
	// lockscheme). Empty selects the model's own scheme stamp, so sealed
	// plans always carry the scheme the model was published under.
	Scheme string

	// testBatchHook, when set, runs on the worker goroutine before each
	// dispatched batch. Tests use it to stall the pipeline deterministically
	// (e.g. to force overload); never set in production.
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
	if c.MaxWait <= 0 {
		c.MaxWait = 200 * time.Microsecond
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
// shard can always complete a request without blocking, even when the
// caller has already abandoned it via context cancellation.
//
// claim decides who owns data once the request is queued: a shard moves
// it from claimQueued to claimRunning before it reads data, a cancelled
// caller moves it from claimQueued to claimAbandoned before it returns.
// Exactly one of them wins, so a shard never reads the sample of a caller
// that has already returned.
type request struct {
	ctx   context.Context
	data  []float64 // the sample's backing values, valid until completion
	start time.Time
	done  chan response
	claim atomic.Int32
}

const (
	claimQueued int32 = iota
	claimRunning
	claimAbandoned
)

// shard is one worker's private execution state: an accelerator bound to
// the server's program (its state: output buffers, scratch, sign masks,
// counters) plus a reusable batch-view header and pre-sized gather buffers,
// so dispatching a micro-batch performs no allocation.
type shard struct {
	acc   *tpu.Accelerator
	view  tensor.Tensor
	live  []*request // requests gathered into the current dispatch
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

	mu     sync.RWMutex // guards closed against concurrent sends on in
	closed bool

	in      chan *request
	batches chan []*request
	wg      sync.WaitGroup

	shards []*shard

	reqPool   sync.Pool
	batchPool sync.Pool

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
	schemeName := cfg.Scheme
	if schemeName == "" {
		schemeName = m.Scheme // sealed plans carry the model's published scheme
	}
	scheme, err := lockscheme.Get(schemeName)
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
		feat:    m.Config.InC * m.Config.InH * m.Config.InW,
		in:      make(chan *request, cfg.QueueDepth),
		batches: make(chan []*request, cfg.Shards),
	}
	s.reqPool.New = func() any { return &request{done: make(chan response, 1)} }
	s.batchPool.New = func() any {
		b := make([]*request, 0, cfg.MaxBatch)
		return &b
	}
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
	s.wg.Add(1)
	go s.batchLoop()
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

// enqueue hands a request to the batcher, failing fast when the server is
// closed or the bounded queue is full. The read-lock pairs with Close's
// write-lock so a send never races the channel close.
func (s *Server) enqueue(req *request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.in <- req:
		return nil
	default:
		s.stats.overloaded.Add(1)
		return ErrOverloaded
	}
}

func (s *Server) getReq(ctx context.Context, data []float64) *request {
	req := s.reqPool.Get().(*request)
	req.ctx = ctx
	req.data = data
	req.start = time.Now()
	req.claim.Store(claimQueued)
	return req
}

// putReq recycles a request whose response has been consumed (or that was
// never enqueued). Abandoned in-flight requests must NOT be recycled: the
// shard's eventual completion lands in the buffered channel, and reuse
// would deliver that stale response to an unrelated caller.
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
	if err := s.enqueue(req); err != nil {
		s.putReq(req)
		return -1, err
	}
	r, ok := s.await(ctx, req)
	if !ok {
		return -1, ctx.Err()
	}
	if r.err != nil {
		return -1, r.err
	}
	return r.class, nil
}

// await waits for req's response. When ctx ends first and no shard has
// claimed the request, the caller abandons it (ok false): the shard will
// complete it into the buffered channel without reading data, and the
// request object is left to the garbage collector (see putReq). When a
// shard has already claimed it, the shard may be reading data, so await
// waits for its answer — at most one batch. Either way no shard touches
// req.data once await returns. Answered requests are recycled.
func (s *Server) await(ctx context.Context, req *request) (r response, ok bool) {
	select {
	case r = <-req.done:
	case <-ctx.Done():
		if req.claim.CompareAndSwap(claimQueued, claimAbandoned) {
			return response{}, false
		}
		r = <-req.done
	}
	s.putReq(req)
	return r, true
}

// PredictBatch classifies a batch x ([N, C, H, W]) by submitting every
// sample through the micro-batcher and gathering the results in order. On
// any per-sample failure (overload, cancellation) the first error is
// returned; samples already enqueued still drain through the shards.
func (s *Server) PredictBatch(ctx context.Context, x *tensor.Tensor) ([]int, error) {
	if len(x.Shape) != 4 || x.Shape[1] != s.c || x.Shape[2] != s.h || x.Shape[3] != s.w {
		return nil, fmt.Errorf("serve: batch shape %v, want [N %d %d %d]", x.Shape, s.c, s.h, s.w)
	}
	n := x.Shape[0]
	reqs := make([]*request, 0, n)
	var firstErr error
	for i := 0; i < n; i++ {
		req := s.getReq(ctx, x.Data[i*s.feat:(i+1)*s.feat])
		if err := s.enqueue(req); err != nil {
			s.putReq(req)
			firstErr = err
			break
		}
		reqs = append(reqs, req)
	}
	out := make([]int, len(reqs))
	for i, req := range reqs {
		r, ok := s.await(ctx, req)
		if !ok {
			r.err = ctx.Err()
		}
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

// batchLoop is the micro-batcher: it blocks for the first request of a
// batch, then coalesces follow-ups until MaxBatch is reached or MaxWait
// has elapsed, whichever is first, and hands the batch to the shards.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	defer close(s.batches)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerLive := false
	var cur []*request
	stopTimer := func() {
		if timerLive && !timer.Stop() {
			<-timer.C
		}
		timerLive = false
	}
	flush := func() {
		if len(cur) > 0 {
			s.stats.batches.Add(1)
			s.stats.batched.Add(uint64(len(cur)))
			s.batches <- cur
			cur = nil
		}
	}
	for {
		if cur == nil {
			req, ok := <-s.in
			if !ok {
				return
			}
			if err := req.ctx.Err(); err != nil {
				s.finish(req, -1, err)
				continue
			}
			cur = append((*s.batchPool.Get().(*[]*request))[:0], req)
			if len(cur) >= s.cfg.MaxBatch {
				flush()
				continue
			}
			timer.Reset(s.cfg.MaxWait)
			timerLive = true
			continue
		}
		select {
		case req, ok := <-s.in:
			if !ok {
				stopTimer()
				flush()
				return
			}
			if err := req.ctx.Err(); err != nil {
				s.finish(req, -1, err)
				continue
			}
			cur = append(cur, req)
			if len(cur) >= s.cfg.MaxBatch {
				stopTimer()
				flush()
			}
		case <-timer.C:
			timerLive = false
			flush()
		}
	}
}

// workerLoop executes dispatched batches on one shard. Requests whose
// context died while queued, or whose caller already abandoned them, are
// completed with the context error without touching the hardware or their
// data; the survivors are claimed, gathered into the shard's contiguous
// buffer and run as one call on the int8 tier.
func (s *Server) workerLoop(sh *shard) {
	defer s.wg.Done()
	for b := range s.batches {
		if s.cfg.testBatchHook != nil {
			s.cfg.testBatchHook()
		}
		k := 0
		for _, req := range b {
			// A failed claim means the caller abandoned the request after
			// its context ended, so ctx.Err is non-nil on both branches.
			if req.ctx.Err() != nil || !req.claim.CompareAndSwap(claimQueued, claimRunning) {
				s.finish(req, -1, req.ctx.Err())
				continue
			}
			copy(sh.batch[k*s.feat:(k+1)*s.feat], req.data)
			sh.live[k] = req
			k++
		}
		if k > 0 {
			x := tensor.ViewInto(&sh.view, sh.batch[:k*s.feat], k, s.c, s.h, s.w)
			err := sh.acc.PredictBatchInto(sh.preds[:k], s.model, x)
			for i := 0; i < k; i++ {
				if err != nil {
					s.finish(sh.live[i], -1, err)
				} else {
					s.finish(sh.live[i], sh.preds[i], nil)
				}
				sh.live[i] = nil
			}
		}
		b = b[:0]
		s.batchPool.Put(&b)
	}
}

// finish records the outcome and completes the request. The buffered done
// channel makes the send non-blocking even for abandoned requests.
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

// Close stops accepting new requests, drains every already-accepted
// request through the shards, waits for the batcher and workers to exit
// and returns the final statistics. Close is idempotent.
func (s *Server) Close() Stats {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
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
	// Batches is the number of dispatched micro-batches and MeanBatch the
	// average coalesced size.
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
