package train

import (
	"sync"

	"hpnn/internal/dataset"
	"hpnn/internal/nn"
	"hpnn/internal/tensor"
)

// Data-parallel gradient engine.
//
// # Canonical micro-shard decomposition
//
// Every step's batch of n rows is split into S = Config.GradShards
// contiguous micro-shards; shard s owns rows [s·n/S, (s+1)·n/S) (integer
// floor, dataset.ShardRange), so trailing shards of a short batch may be
// empty. S is fixed by configuration — it does NOT scale with the replica
// count K — which makes the per-shard forward/backward results, and
// everything derived from them, a pure function of (seed, batch, S).
// K = Config.Replicas is purely an execution-width knob: replica r executes
// the m = S/K shards [r·m, (r+1)·m).
//
// # Fixed-shape tree reduction
//
// Shard gradients combine over the complete balanced binary tree with S
// leaves. Every internal node is one AddTo(left, right) with left always
// the lower-indexed subtree; empty shards are ∅ nodes that pass the other
// child through untouched (no floating-point op). Within a replica the
// m-leaf subtree is evaluated with a binary-counter stack (log2(m)+1
// levels); across replicas the K subtree roots merge in gap-doubling rounds
// (gap = 1, 2, 4, …: reps[i] += reps[i+gap]). Because S is a power of two
// and K divides S, the within-replica subtrees are exactly the aligned
// height-log2(m) subtrees of the S-leaf tree, so the full reduction shape —
// and therefore every intermediate and final sum, bitwise — is identical
// for every K.
//
// # Execution width
//
// While the replicas run, the tensor worker pool is clamped to one worker
// (SetMaxWorkers(1), restored after the barrier): each replica computes its
// shards serially and all parallelism comes from the K replica goroutines.
// Per-shard compute is bitwise worker-count-invariant anyway (the PR 4 GEMM
// grid guarantee), so the clamp costs nothing in determinism and gives
// clean K-way scaling without nested-pool contention.
//
// # Shared state discipline
//
// Replica networks are nn.ReplicaClone()s: weights, lock factors and BN
// running statistics are shared read-only; gradients, scratch and BN
// statistic outputs are private. Batch-norm batch stats are redirected per
// shard into engine-owned buffers and folded into the shared running stats
// serially, in shard order, after the barrier; shard losses are summed in
// shard order the same way.
type replicaEngine struct {
	k, shards int

	masterParams []*nn.Param
	masterBNs    []*nn.BatchNorm2D
	masterLocks  []*nn.Lock
	gradLen      int

	reps []*replica
	// stats[s][j] receives shard s's batch statistics for the j-th
	// batch-norm layer ([mean, var] pairs, len 2C).
	stats [][][]float64
	// shardLoss[s] is shard s's invN-scaled loss; shards are disjoint per
	// replica, so the writes never race.
	shardLoss []float64

	started bool
	done    sync.WaitGroup
}

// replica is one model clone plus the goroutine-local state to run its
// micro-shards and reduce their gradients.
type replica struct {
	idx   int
	eng   *replicaEngine
	net   *nn.Network
	locks []*nn.Lock
	bns   []*nn.BatchNorm2D
	loss  nn.SoftmaxCrossEntropy

	// gradVec is the clone's parameter gradients rebased onto one flat
	// vector (nn.FlattenGrads): cleared before each shard's backward pass,
	// then pushed into the reduction stack.
	gradVec []float64
	gradBuf *tensor.Tensor

	// xView windows the step batch's rows [lo, hi) without copying;
	// shapeBuf backs its shape header across calls.
	xView    tensor.Tensor
	shapeBuf []int

	// Binary-counter reduction stack: stack[l] holds the sum of 2^l
	// consecutive leaves when present[l]. The top level is the replica's
	// subtree root.
	stack       [][]float64
	present     []bool
	root        []float64
	rootPresent bool

	// Per-step task, written by the driver before waking the replica.
	b    dataset.Batch
	invN float64

	wake chan struct{}
}

func newReplicaEngine(net *nn.Network, cfg Config) *replicaEngine {
	e := &replicaEngine{
		k:            cfg.Replicas,
		shards:       cfg.GradShards,
		masterParams: net.Params(),
		masterBNs:    net.BatchNorms(),
		masterLocks:  net.Locks(),
	}
	for _, p := range e.masterParams {
		e.gradLen += p.Grad.Len()
	}
	m := e.shards / e.k
	levels := 1
	for 1<<(levels-1) < m {
		levels++
	}
	e.reps = make([]*replica, e.k)
	for r := range e.reps {
		clone := net.ReplicaClone()
		rep := &replica{
			idx:   r,
			eng:   e,
			net:   clone,
			locks: clone.Locks(),
			bns:   clone.BatchNorms(),
			wake:  make(chan struct{}, 1),
		}
		rep.gradVec = nn.FlattenGrads(clone.Params())
		rep.stack = make([][]float64, levels)
		for l := range rep.stack {
			rep.stack[l] = make([]float64, e.gradLen)
		}
		rep.present = make([]bool, levels)
		e.reps[r] = rep
	}
	e.stats = make([][][]float64, e.shards)
	for s := range e.stats {
		e.stats[s] = make([][]float64, len(e.masterBNs))
		for j, bn := range e.masterBNs {
			e.stats[s][j] = make([]float64, 2*bn.C)
		}
	}
	e.shardLoss = make([]float64, e.shards)
	return e
}

// ensureStarted lazily spins up the persistent replica goroutines. It is
// called from gradStep (not just Run) so tests driving Trainer.step
// directly still work; stop tears the goroutines down again.
func (e *replicaEngine) ensureStarted() {
	if e.started {
		return
	}
	e.started = true
	for _, r := range e.reps {
		go r.loop(r.wake) //hpnn:allow(noalloc) one-time goroutine spin-up; steady state reuses the running replicas
	}
}

// stop terminates the replica goroutines. The engine can be restarted by
// the next gradStep.
func (e *replicaEngine) stop() {
	if !e.started {
		return
	}
	e.started = false
	for _, r := range e.reps {
		close(r.wake)
		r.wake = make(chan struct{}, 1)
	}
}

// loop processes one step task per wake message. The channel is passed as
// an argument (captured at spawn time on the driver goroutine) so stop's
// channel replacement never races with the loop's receive.
func (r *replica) loop(wake chan struct{}) {
	for range wake {
		r.runStep()
		r.eng.done.Done()
	}
}

// syncLocks copies lock engagement from the master network onto every
// clone. Factors are shared slices (SetBits propagates automatically);
// Engaged is a plain bool copied at clone time, so it must be refreshed in
// case the caller engaged/disengaged locks after the Trainer was built.
func (e *replicaEngine) syncLocks() {
	for _, r := range e.reps {
		for i, l := range r.locks {
			l.Engaged = e.masterLocks[i].Engaged
		}
	}
}

// gradStep computes the full-batch gradient of b data-parallel and leaves
// it in the master parameters' Grad tensors, returning the mean batch loss.
// It replaces the forward/loss/backward stage of Trainer.step; clipping and
// the optimizer update still run on the master afterwards.
func (e *replicaEngine) gradStep(b dataset.Batch) float64 {
	e.ensureStarted()
	e.syncLocks()
	n := len(b.Y)
	invN := 1 / float64(n)
	for _, r := range e.reps {
		r.b, r.invN = b, invN
	}
	e.done.Add(len(e.reps))
	// Clamp the worker pool for the replica phase: parallelism comes from
	// the K replica goroutines, each computing its shards serially.
	old := tensor.SetMaxWorkers(1)
	for _, r := range e.reps {
		r.wake <- struct{}{}
	}
	e.done.Wait()
	tensor.SetMaxWorkers(old)

	// Cross-replica reduction: gap-doubling pairwise rounds over the
	// replica subtree roots, lower index always on the left. ∅ roots (all
	// shards empty — possible on short batches) pass the partner through
	// by pointer, with no floating-point op.
	for gap := 1; gap < e.k; gap *= 2 {
		for i := 0; i+gap < e.k; i += 2 * gap {
			left, right := e.reps[i], e.reps[i+gap]
			if !right.rootPresent {
				continue
			}
			if !left.rootPresent {
				left.root, left.rootPresent = right.root, true
				continue
			}
			tensor.AddTo(left.root, right.root)
		}
	}

	// Copy (not +=) the reduced gradient into the master gradients: the
	// master Grad tensors are zeroed by the optimizer, and 0 + (-0.0)
	// would flip -0.0 components to +0.0, breaking bitwise K=1 parity.
	root := e.reps[0].root
	off := 0
	for _, p := range e.masterParams {
		ln := p.Grad.Len()
		copy(p.Grad.Data, root[off:off+ln])
		off += ln
	}

	// Fold shard batch-norm statistics into the shared running stats and
	// sum shard losses — serially, in canonical shard order, skipping
	// empty shards, so the result is independent of K.
	loss := 0.0
	for s := 0; s < e.shards; s++ {
		lo, hi := dataset.ShardRange(n, s, e.shards)
		if lo == hi {
			continue
		}
		for j, bn := range e.masterBNs {
			bn.AbsorbStats(e.stats[s][j])
		}
		loss += e.shardLoss[s]
	}
	return loss
}

// runStep executes the replica's m = S/K micro-shards for the current task
// and leaves the subtree root in r.root.
//
//hpnn:noalloc
func (r *replica) runStep() {
	e := r.eng
	n := len(r.b.Y)
	m := e.shards / e.k
	feat := 1
	for _, d := range r.b.X.Shape[1:] {
		feat *= d
	}
	for li := 0; li < m; li++ {
		s := r.idx*m + li
		lo, hi := dataset.ShardRange(n, s, e.shards)
		if lo == hi {
			r.push(li, false)
			continue
		}
		for j, bn := range r.bns {
			bn.StatsOut = e.stats[s][j]
		}
		clear(r.gradVec)
		r.shapeBuf = append(r.shapeBuf[:0], hi-lo)
		r.shapeBuf = append(r.shapeBuf, r.b.X.Shape[1:]...) //hpnn:allow(noalloc) grows once, to the batch rank, then stays
		tensor.ViewInto(&r.xView, r.b.X.Data[lo*feat:hi*feat], r.shapeBuf...)
		out := r.net.Forward(&r.xView, true)
		var l float64
		l, r.gradBuf = r.loss.LossScaledInto(r.gradBuf, out, r.b.Y[lo:hi], r.invN)
		r.net.Backward(r.gradBuf)
		e.shardLoss[s] = l
		r.push(li, true)
	}
	top := len(r.stack) - 1
	r.root = r.stack[top]
	r.rootPresent = r.present[top]
	r.present[top] = false
}

// push merges leaf li (the replica's li-th local shard, currently in
// r.gradVec when srcPresent) into the binary-counter stack. Each trailing
// set bit of li closes one subtree of the fixed reduction shape: the
// left-subtree partial at that level merges with src via AddTo(left, right)
// — earlier leaves always on the left — while ∅ children pass through with
// no floating-point op. The placement level is a function of li alone (NOT
// of which levels happen to hold values: ∅ subtrees leave their level
// vacant without shrinking the tree), so the shape never depends on which
// shards were empty. The merged value is finally copied into its placement
// level, freeing gradVec for the next shard and keeping every stack level
// the owner of its own buffer.
//
//hpnn:noalloc
func (r *replica) push(li int, srcPresent bool) {
	src := r.gradVec
	lvl := 0
	for ; li&(1<<lvl) != 0; lvl++ {
		if !r.present[lvl] {
			continue // ∅ left subtree: src passes through unchanged
		}
		if srcPresent {
			tensor.AddTo(r.stack[lvl], src)
		}
		src = r.stack[lvl]
		srcPresent = true
		r.present[lvl] = false
	}
	if srcPresent && len(src) != 0 && &src[0] != &r.stack[lvl][0] {
		copy(r.stack[lvl], src)
	}
	r.present[lvl] = srcPresent
}
