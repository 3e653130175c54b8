package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps kernel parallelism. It defaults to GOMAXPROCS and can be
// lowered in tests for determinism probing (results are deterministic either
// way: work is partitioned, never reduced concurrently into shared state).
// It is atomic because the pool reads it from arbitrary goroutines while
// SetMaxWorkers may be called concurrently.
var maxWorkers atomic.Int32

func init() { maxWorkers.Store(int32(runtime.GOMAXPROCS(0))) }

// SetMaxWorkers overrides the kernel worker count; n < 1 resets to
// GOMAXPROCS. It returns the previous value.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int32(n)))
}

// MaxWorkers returns the current kernel worker cap.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// KernelArgs carries operand views for pooled kernels. Kernels that run on
// the worker pool receive their operands through this struct instead of a
// capturing closure, so dispatching a kernel performs no heap allocation:
// the pool copies the struct by value into its own stable storage before
// waking workers.
//
// Off and Flag exist for the blocked GEMM engine: Off is the current
// kc-block's offset into the shared dimension (the packing routines read
// source columns/rows starting there) and Flag marks the first block,
// whose tiles overwrite the destination instead of accumulating.
type KernelArgs struct {
	Dst, A, B []float64
	M, N, K   int
	Off       int
	Flag      bool
}

// workerPool runs parallel regions on a set of persistent goroutines.
//
// One region runs at a time (the mutex serializes them); a caller that finds
// the pool busy — including a nested region from inside a kernel — simply
// runs its indices inline, which is always correct because regions never
// require true concurrency. The calling goroutine participates as a worker,
// so a pool with W background workers executes on W+1 goroutines.
//
// Dispatch is allocation-free in steady state: workers are woken by zero-size
// tokens on per-worker buffered channels, chunks are claimed with an atomic
// cursor, and task state lives in pool fields written under the mutex before
// the wake tokens are sent (the channel send/receive pair provides the
// happens-before edge; the WaitGroup provides the reverse edge at the end of
// the region, so resetting the fields afterwards is race-free).
type workerPool struct {
	mu   sync.Mutex
	wake []chan struct{}
	done sync.WaitGroup

	// Region state. Exactly one of (cfn, ctx) / (kfn, args) is set.
	next  atomic.Int64
	n     int
	chunk int
	cfn   func(any, int)
	ctx   any
	kfn   func(*KernelArgs, int)
	args  KernelArgs
}

var pool workerPool

// kargsFree recycles KernelArgs copies for run's serial fallback. Passing
// the caller's pointer straight to kfn would leak it, forcing every
// &KernelArgs{...} call-site literal onto the heap even when the parallel
// path is taken; copying into recycled scratch keeps dispatch
// allocation-free. A mutex-guarded LIFO freelist for the same reason as
// gemmFree: sync.Pool drops items randomly under the race detector, which
// makes the zero-alloc pins flaky.
var kargsFree struct {
	sync.Mutex
	list []*KernelArgs
}

// ensureWorkers grows the background worker set to at least k goroutines.
// Workers idle on their wake channel and are never torn down; lowering
// SetMaxWorkers simply leaves the surplus asleep.
func (p *workerPool) ensureWorkers(k int) {
	for len(p.wake) < k {
		ch := make(chan struct{}, 1) //hpnn:allow(noalloc) one-time worker spin-up; workers persist for the process lifetime
		p.wake = append(p.wake, ch)  //hpnn:allow(noalloc) one-time worker registry growth
		go p.workerLoop(ch)
	}
}

func (p *workerPool) workerLoop(ch chan struct{}) {
	for range ch {
		p.runChunks()
		p.done.Done()
	}
}

// runChunks claims and executes chunks until the region's index space is
// exhausted. Each index is processed exactly once regardless of which
// executor claims it, so results are deterministic.
func (p *workerPool) runChunks() {
	n, chunk := p.n, p.chunk
	for {
		lo := int(p.next.Add(int64(chunk))) - chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		switch {
		case p.cfn != nil:
			for i := lo; i < hi; i++ {
				p.cfn(p.ctx, i)
			}
		default:
			for i := lo; i < hi; i++ {
				p.kfn(&p.args, i)
			}
		}
	}
}

// run executes one parallel region. Exactly one of (cfn, ctx) / (kfn, args)
// must be provided; args is copied into pool storage so the caller may pass
// a stack value.
func (p *workerPool) run(n int, cfn func(any, int), ctx any, kfn func(*KernelArgs, int), args *KernelArgs) {
	workers := int(maxWorkers.Load())
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 || !p.mu.TryLock() {
		// Serial fallback: tiny regions, single-worker mode, and nested or
		// concurrent regions (the pool is busy) all run inline.
		switch {
		case cfn != nil:
			for i := 0; i < n; i++ {
				cfn(ctx, i)
			}
		default:
			kargsFree.Lock()
			var a *KernelArgs
			if k := len(kargsFree.list); k > 0 {
				a = kargsFree.list[k-1]
				kargsFree.list = kargsFree.list[:k-1]
			} else {
				a = new(KernelArgs) //hpnn:allow(noalloc) freelist growth to the peak concurrent-fallback count, then recycled forever
			}
			kargsFree.Unlock()
			*a = *args
			for i := 0; i < n; i++ {
				kfn(a, i)
			}
			*a = KernelArgs{}
			kargsFree.Lock()
			kargsFree.list = append(kargsFree.list, a) //hpnn:allow(noalloc) freelist push; capacity reaches the concurrency peak and stays
			kargsFree.Unlock()
		}
		return
	}
	defer p.mu.Unlock()
	bg := workers - 1
	p.ensureWorkers(bg)
	p.n = n
	p.chunk = (n + workers - 1) / workers
	p.next.Store(0)
	p.cfn, p.ctx, p.kfn = cfn, ctx, kfn
	if kfn != nil {
		p.args = *args
	}
	p.done.Add(bg)
	for w := 0; w < bg; w++ {
		p.wake[w] <- struct{}{}
	}
	p.runChunks()
	p.done.Wait()
	p.cfn, p.ctx, p.kfn = nil, nil, nil
	p.args = KernelArgs{}
}

// ParallelCtx runs fn(ctx, i) for i in [0, n) across up to MaxWorkers
// goroutines of the persistent worker pool. Each index is processed exactly
// once; small n runs inline to avoid dispatch overhead. When fn is a
// top-level function and ctx is a pointer (e.g. a layer's scratch struct),
// dispatch performs zero heap allocations: a static func value is free and
// boxing a pointer into an interface does not allocate.
func ParallelCtx(n int, ctx any, fn func(ctx any, i int)) {
	pool.run(n, fn, ctx, nil, nil)
}

// ParallelKernel runs fn(&args, i) for i in [0, n) on the worker pool,
// copying args by value into pool-owned storage. It is the allocation-free
// dispatch used by the tensor kernels themselves.
func ParallelKernel(n int, args *KernelArgs, fn func(*KernelArgs, int)) {
	pool.run(n, nil, nil, fn, args)
}
