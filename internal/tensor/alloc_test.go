package tensor

import "testing"

// Allocation-regression tests for the buffer-reusing kernels: every
// *Into kernel and the worker-pool dispatch must be allocation-free once
// buffers exist. A regression here silently reintroduces per-step garbage
// across the whole training path, so these are hard zeroes, not thresholds.

func mustZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warmup: lazily grown buffers and pool workers settle here
	if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
		t.Errorf("%s: %v allocs/run in steady state, want 0", name, allocs)
	}
}

func TestKernelsZeroAllocSteadyState(t *testing.T) {
	a := benchTensor(32, 48)
	bm := benchTensor(48, 24)
	bt := benchTensor(24, 48)
	c := benchTensor(32, 32)
	dst := New(32, 24)
	dtn := New(48, 32)
	dt := New(48, 32)
	v := make([]float64, 48)
	mv := make([]float64, 32)

	mustZeroAllocs(t, "MatMulInto", func() { MatMulInto(dst, a, bm) })
	mustZeroAllocs(t, "MatMulNTInto", func() { MatMulNTInto(dst, a, bt) })
	mustZeroAllocs(t, "MatMulTNInto", func() { MatMulTNInto(dtn, a, c) })
	mustZeroAllocs(t, "TransposeInto", func() { TransposeInto(dt, a) })
	mustZeroAllocs(t, "MatVecInto", func() { MatVecInto(mv, a, v) })
}

// TestGEMMZeroAllocSteadyState pins the packed engine itself: shapes that
// span several kc blocks (packing scratch grows once, then recycles), the
// serial slice-level entry points used inside conv batch workers, and
// MatVecInto, the watermark regularizer's per-step product.
func TestGEMMZeroAllocSteadyState(t *testing.T) {
	a := benchTensor(33, 600)
	bm := benchTensor(600, 41)
	dst := New(33, 41)
	sd := make([]float64, 33*41)
	x := make([]float64, 600)
	y := make([]float64, 33)

	mustZeroAllocs(t, "MatMulInto multi-block", func() { MatMulInto(dst, a, bm) })
	mustZeroAllocs(t, "MatMulSliceInto", func() { MatMulSliceInto(sd, a.Data, bm.Data, 33, 600, 41) })
	mustZeroAllocs(t, "MatVecInto multi-block", func() { MatVecInto(y, a, x) })
}

func TestConvKernelsZeroAllocSteadyState(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := New(3, 12, 12)
	img.Fill(0.5)
	col := New(g.ColRows(), g.OutH()*g.OutW())
	back := New(3, 12, 12)
	kern := New(5, 3, 3, 3)
	kern.Fill(0.1)
	out := New(5, 12, 12)

	mustZeroAllocs(t, "Im2ColInto", func() { Im2ColInto(col, img, g) })
	mustZeroAllocs(t, "Col2ImInto", func() { Col2ImInto(back, col, g) })
	mustZeroAllocs(t, "ConvDirectInto", func() { ConvDirectInto(out, img, kern, g) })
}

func TestParallelCtxZeroAlloc(t *testing.T) {
	type job struct{ data []float64 }
	j := &job{data: make([]float64, 256)}
	worker := func(ctx any, i int) { ctx.(*job).data[i]++ }
	mustZeroAllocs(t, "ParallelCtx", func() { ParallelCtx(len(j.data), j, worker) })
}

func TestParallelKernelZeroAlloc(t *testing.T) {
	args := &KernelArgs{Dst: make([]float64, 64), A: make([]float64, 64), M: 64}
	worker := func(a *KernelArgs, i int) { a.Dst[i] = a.A[i] * 2 }
	mustZeroAllocs(t, "ParallelKernel", func() { ParallelKernel(args.M, args, worker) })
}

func TestEnsureShapeAlternatingBatchZeroAlloc(t *testing.T) {
	// The short final batch of an epoch shrinks the buffer in place; the
	// next full batch must find the original capacity still there.
	buf := New(16, 10)
	mustZeroAllocs(t, "EnsureShape alternating", func() {
		buf = EnsureShape(buf, 16, 10)
		buf = EnsureShape(buf, 3, 10)
	})
}
