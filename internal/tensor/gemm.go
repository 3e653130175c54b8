package tensor

import "sync"

// Cache-blocked, packed GEMM engine. All dense matrix products in the
// repository — the three transposition variants plus the matrix-vector
// product — lower onto one kernel:
//
//	for each kc-wide block of the shared dimension (serial, in order):
//	  pack A's block into mr-wide row panels    [mPanels][kc][mr]
//	  pack B's block into nr-wide column panels [nPanels][kc][nr]
//	  for every (i,j) tile of the output grid (parallel, disjoint writes):
//	    run the mr×nr register-tiled micro-kernel over the packed panels
//
// Packing normalizes all transposition variants into one contiguous,
// stride-free layout, so the micro-kernel is shared and the variants only
// differ in which pack routine reads the source (rows vs columns). The
// micro-kernel holds the mr×nr accumulator tile in registers and streams
// both panels sequentially; on amd64 with AVX2+FMA it is a hand-written
// assembly kernel (four broadcast·vector fused multiply-adds per packed
// column — see gemm_amd64.s) and elsewhere a scalar Go loop. The kernel
// choice is fixed once at init, so results stay run-to-run deterministic.
//
// Determinism: tiles are assigned to workers by index but every output
// element is written by exactly one tile per kc block, kc blocks run
// serially in ascending order, and the micro-kernel sums p in ascending
// order within each lane. The result is a pure function of the operands —
// bitwise identical across worker counts and across runs.
//
// Allocation: panel scratch lives in pooled gemmScratch arenas
// (grow-once, reuse-forever), and
// all parallel dispatch goes through ParallelKernel with top-level worker
// functions, so a steady-state call performs zero heap allocations.
const (
	// gemmMR×gemmNR is the micro-kernel's register tile: four rows of two
	// 4-wide fp64 vectors, eight vector accumulators plus three operand
	// registers on amd64. The scalar fallback runs it as two 4×4 halves
	// to stay inside the scalar register budget.
	gemmMR = 4
	gemmNR = 8
	// gemmKC is the shared-dimension block: one A panel (mr×kc) plus one
	// B panel (nr×kc) occupy 24 KB, inside L1, and the packed B block for
	// a 256-wide output stays L2-resident.
	gemmKC = 256
)

// GEMM transposition variants. Packing normalizes them; only the pack
// routines differ.
const (
	gemmNN = iota // C = A·B        A m×k, B k×n
	gemmNT        // C = A·Bᵀ       A m×k, B n×k
	gemmTN        // C = Aᵀ·B       A k×m, B k×n
)

// gemmUseFMA selects the AVX2+FMA assembly micro-kernel. Decided once at
// init: a per-call choice would be a determinism hazard, not just a
// branch cost.
var gemmUseFMA = gemmCPUSupportsFMA()

// gemmScratch is one call's packing arena. A freelist (rather than a
// single package-level buffer) because slice-level GEMMs run concurrently
// on the worker pool — every in-flight call owns a private arena, and
// steady-state acquire/release recycles without allocating. The
// KernelArgs live here rather than on the stack because the pack routines
// are called through function variables: an indirect callee makes a
// stack-allocated &args escape at every call, while a pointer into the
// pooled arena is heap storage that is recycled, not reallocated.
type gemmScratch struct {
	pa, pb              []float64
	aArgs, bArgs, tArgs KernelArgs
}

// gemmFree is a mutex-guarded LIFO freelist, deliberately not a
// sync.Pool: under the race detector sync.Pool.Put randomly drops items,
// which would make the zero-alloc pins (run under -race by
// scripts/check.sh) flaky. The list grows to the peak number of
// concurrent GEMMs and then recycles forever; the critical section is two
// pointer moves, noise against the O(mnk) work it brackets.
var gemmFree struct {
	sync.Mutex
	list []*gemmScratch
}

func gemmAcquire() *gemmScratch {
	gemmFree.Lock()
	n := len(gemmFree.list)
	if n == 0 {
		gemmFree.Unlock()
		return new(gemmScratch) //hpnn:allow(noalloc) freelist growth to the peak concurrent-GEMM count, then recycled forever
	}
	s := gemmFree.list[n-1]
	gemmFree.list = gemmFree.list[:n-1]
	gemmFree.Unlock()
	return s
}

// release drops the arena's operand references (so a freed scratch never
// pins caller tensors) and returns it to the freelist; the packing
// buffers are the arena and stay.
func (s *gemmScratch) release() {
	s.aArgs, s.bArgs, s.tArgs = KernelArgs{}, KernelArgs{}, KernelArgs{}
	gemmFree.Lock()
	gemmFree.list = append(gemmFree.list, s) //hpnn:allow(noalloc) freelist push; capacity reaches the concurrency peak and stays
	gemmFree.Unlock()
}

// gemmRun executes dst = op(A)·op(B) for one of the variants. par selects
// pool-parallel execution over the tile grid; the slice-level entry points
// pass false because their callers (the convolution layer's per-sample
// workers) already own the batch-level parallelism.
//
//hpnn:noalloc
func gemmRun(dst, a, b []float64, m, n, k, variant int, par bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := range dst[:m*n] {
			dst[i] = 0
		}
		return
	}
	// With a 1-worker cap ParallelKernel degenerates to its serial
	// fallback anyway; taking the in-line serial branch directly keeps the
	// path free of the dispatch layer's pooled-args copy.
	if par && MaxWorkers() <= 1 {
		par = false
	}
	s := gemmAcquire()
	if n == 1 {
		gemmVec(s, dst, a, b, m, k, variant, par)
		s.release()
		return
	}
	// Pack-routine selection: "rows" panels take their lanes from
	// consecutive ld-strided rows of the source, "cols" panels from
	// consecutive columns.
	var packA, packB func(*KernelArgs, int)
	var ldA, ldB int
	switch variant {
	case gemmNN:
		packA, ldA = gemmPackARows, k // lanes = rows of A
		packB, ldB = gemmPackBCols, n // lanes = columns of B
	case gemmNT:
		packA, ldA = gemmPackARows, k // lanes = rows of A
		packB, ldB = gemmPackBRows, k // lanes = rows of B (= columns of Bᵀ)
	default: // gemmTN
		packA, ldA = gemmPackACols, m // lanes = columns of A (= rows of Aᵀ)
		packB, ldB = gemmPackBCols, n // lanes = columns of B
	}
	mP := (m + gemmMR - 1) / gemmMR
	nP := (n + gemmNR - 1) / gemmNR
	kc := k
	if kc > gemmKC {
		kc = gemmKC
	}
	s.pa = EnsureFloats(s.pa, mP*gemmMR*kc)
	s.pb = EnsureFloats(s.pb, nP*gemmNR*kc)
	for pc := 0; pc < k; pc += gemmKC {
		kcEff := k - pc
		if kcEff > gemmKC {
			kcEff = gemmKC
		}
		s.aArgs = KernelArgs{Dst: s.pa, A: a, M: m, N: ldA, K: kcEff, Off: pc}
		s.bArgs = KernelArgs{Dst: s.pb, A: b, M: n, N: ldB, K: kcEff, Off: pc}
		s.tArgs = KernelArgs{Dst: dst, A: s.pa, B: s.pb, M: m, N: n, K: kcEff, Flag: pc == 0}
		if par {
			ParallelKernel(mP, &s.aArgs, packA)
			ParallelKernel(nP, &s.bArgs, packB)
			ParallelKernel(mP*nP, &s.tArgs, gemmTile)
		} else {
			for i := 0; i < mP; i++ {
				packA(&s.aArgs, i)
			}
			for j := 0; j < nP; j++ {
				packB(&s.bArgs, j)
			}
			for t := 0; t < mP*nP; t++ {
				gemmTile(&s.tArgs, t)
			}
		}
	}
	s.release()
}

// gemmPackARows packs A panel pi of the current kc block from lanes that
// are rows of the ld-strided source: panel[p][lane] =
// src[(pi·mr+lane)·ld + off+p]. Lanes beyond the matrix edge are
// zero-filled so the micro-kernel never branches on tile size.
//
//hpnn:noalloc
func gemmPackARows(g *KernelArgs, pi int) {
	kc := g.K
	dst := g.Dst[pi*gemmMR*kc : (pi+1)*gemmMR*kc]
	base := pi * gemmMR
	lanes := g.M - base
	if lanes > gemmMR {
		lanes = gemmMR
	}
	for lane := 0; lane < lanes; lane++ {
		row := g.A[(base+lane)*g.N+g.Off : (base+lane)*g.N+g.Off+kc]
		for p, v := range row {
			dst[p*gemmMR+lane] = v
		}
	}
	for lane := lanes; lane < gemmMR; lane++ {
		for p := 0; p < kc; p++ {
			dst[p*gemmMR+lane] = 0
		}
	}
}

// gemmPackACols packs A panel pi from lanes that are columns of the
// ld-strided source (the Aᵀ case): panel[p][lane] =
// src[(off+p)·ld + pi·mr+lane], with zero-filled edge lanes.
//
//hpnn:noalloc
func gemmPackACols(g *KernelArgs, pi int) {
	kc, ld := g.K, g.N
	dst := g.Dst[pi*gemmMR*kc : (pi+1)*gemmMR*kc]
	base := pi * gemmMR
	lanes := g.M - base
	if lanes > gemmMR {
		lanes = gemmMR
	}
	if lanes == gemmMR {
		for p := 0; p < kc; p++ {
			src := g.A[(g.Off+p)*ld+base : (g.Off+p)*ld+base+gemmMR]
			d := dst[p*gemmMR : p*gemmMR+gemmMR]
			d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
		}
		return
	}
	for p := 0; p < kc; p++ {
		src := g.A[(g.Off+p)*ld+base : (g.Off+p)*ld+base+lanes]
		d := dst[p*gemmMR : p*gemmMR+gemmMR]
		for c := 0; c < gemmMR; c++ {
			if c < lanes {
				d[c] = src[c]
			} else {
				d[c] = 0
			}
		}
	}
}

// gemmPackBRows packs B panel pi from lanes that are rows of the
// ld-strided source (the Bᵀ case), zero-filling edge lanes.
//
//hpnn:noalloc
func gemmPackBRows(g *KernelArgs, pi int) {
	kc := g.K
	dst := g.Dst[pi*gemmNR*kc : (pi+1)*gemmNR*kc]
	base := pi * gemmNR
	lanes := g.M - base
	if lanes > gemmNR {
		lanes = gemmNR
	}
	for lane := 0; lane < lanes; lane++ {
		row := g.A[(base+lane)*g.N+g.Off : (base+lane)*g.N+g.Off+kc]
		for p, v := range row {
			dst[p*gemmNR+lane] = v
		}
	}
	for lane := lanes; lane < gemmNR; lane++ {
		for p := 0; p < kc; p++ {
			dst[p*gemmNR+lane] = 0
		}
	}
}

// gemmPackBCols packs B panel pi from lanes that are columns of the
// ld-strided source, zero-filling edge lanes.
//
//hpnn:noalloc
func gemmPackBCols(g *KernelArgs, pi int) {
	kc, ld := g.K, g.N
	dst := g.Dst[pi*gemmNR*kc : (pi+1)*gemmNR*kc]
	base := pi * gemmNR
	lanes := g.M - base
	if lanes > gemmNR {
		lanes = gemmNR
	}
	if lanes == gemmNR {
		for p := 0; p < kc; p++ {
			src := g.A[(g.Off+p)*ld+base : (g.Off+p)*ld+base+gemmNR]
			d := dst[p*gemmNR : p*gemmNR+gemmNR]
			d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
			d[4], d[5], d[6], d[7] = src[4], src[5], src[6], src[7]
		}
		return
	}
	for p := 0; p < kc; p++ {
		src := g.A[(g.Off+p)*ld+base : (g.Off+p)*ld+base+lanes]
		d := dst[p*gemmNR : p*gemmNR+gemmNR]
		for c := 0; c < gemmNR; c++ {
			if c < lanes {
				d[c] = src[c]
			} else {
				d[c] = 0
			}
		}
	}
}

// gemmTile runs the micro-kernel for output tile t of the current kc
// block. On the first block (Flag) the tile overwrites dst — no separate
// zeroing pass — and on later blocks it accumulates. Edge tiles compute
// the full padded mr×nr (zero lanes contribute zeros) and store only the
// valid region.
//
//hpnn:noalloc
func gemmTile(g *KernelArgs, t int) {
	kc := g.K
	nP := (g.N + gemmNR - 1) / gemmNR
	ip, jp := t/nP, t%nP
	ap := g.A[ip*gemmMR*kc : (ip+1)*gemmMR*kc]
	bp := g.B[jp*gemmNR*kc : (jp+1)*gemmNR*kc]
	var acc [gemmMR * gemmNR]float64
	if gemmUseFMA {
		gemmMicroFMA(&ap[0], &bp[0], kc, &acc)
	} else {
		gemmMicroGo(ap, bp, kc, &acc)
	}
	m, n := g.M, g.N
	i0, j0 := ip*gemmMR, jp*gemmNR
	mEff, nEff := m-i0, n-j0
	if mEff > gemmMR {
		mEff = gemmMR
	}
	if nEff > gemmNR {
		nEff = gemmNR
	}
	for r := 0; r < mEff; r++ {
		row := g.Dst[(i0+r)*n+j0 : (i0+r)*n+j0+nEff]
		at := acc[r*gemmNR : r*gemmNR+nEff]
		if g.Flag {
			for c := range row {
				row[c] = at[c]
			}
		} else {
			for c := range row {
				row[c] += at[c]
			}
		}
	}
}

// gemmMicroGo is the portable micro-kernel: acc[r][c] = Σ_p ap[p][r]·bp[p][c]
// over the packed panels, run as two 4×4 halves so the sixteen live
// accumulators of each half stay near the scalar register budget. The
// per-lane summation order (ascending p) matches the vector kernel; only
// rounding differs (the assembly kernel's FMA skips the intermediate
// rounding), and the choice between them is fixed at init.
//
//hpnn:noalloc
func gemmMicroGo(ap, bp []float64, kc int, acc *[gemmMR * gemmNR]float64) {
	ap = ap[:kc*gemmMR]
	for h := 0; h < gemmNR; h += 4 {
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		var c20, c21, c22, c23 float64
		var c30, c31, c32, c33 float64
		bo := h
		for o := 0; o+3 < len(ap); o += 4 {
			a0, a1, a2, a3 := ap[o], ap[o+1], ap[o+2], ap[o+3]
			b := bp[bo : bo+4 : len(bp)]
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
			bo += gemmNR
		}
		acc[0*gemmNR+h+0], acc[0*gemmNR+h+1], acc[0*gemmNR+h+2], acc[0*gemmNR+h+3] = c00, c01, c02, c03
		acc[1*gemmNR+h+0], acc[1*gemmNR+h+1], acc[1*gemmNR+h+2], acc[1*gemmNR+h+3] = c10, c11, c12, c13
		acc[2*gemmNR+h+0], acc[2*gemmNR+h+1], acc[2*gemmNR+h+2], acc[2*gemmNR+h+3] = c20, c21, c22, c23
		acc[3*gemmNR+h+0], acc[3*gemmNR+h+1], acc[3*gemmNR+h+2], acc[3*gemmNR+h+3] = c30, c31, c32, c33
	}
}

// gemmVec is the engine's skinny path for n == 1 outputs (MatVec and
// degenerate single-column products). Packing would double the memory
// traffic of an already memory-bound product, so each output element is a
// straight ascending-order dot product, deterministic for the same reason
// as the tile grid: one worker owns each output row.
//
//hpnn:noalloc
func gemmVec(s *gemmScratch, dst, a, b []float64, m, k, variant int, par bool) {
	s.aArgs = KernelArgs{Dst: dst, A: a, B: b, M: m, K: k}
	fn := gemmVecRow
	if variant == gemmTN {
		fn = gemmVecTNRow
	}
	if par {
		ParallelKernel(m, &s.aArgs, fn)
		return
	}
	for i := 0; i < m; i++ {
		fn(&s.aArgs, i)
	}
}

// gemmVecRow computes dst[i] = A[i,:]·b for row-major A (NN and NT agree
// when B has a single row/column).
//
//hpnn:noalloc
func gemmVecRow(g *KernelArgs, i int) {
	k := g.K
	row := g.A[i*k : (i+1)*k]
	s := 0.0
	for p, av := range row {
		s += av * g.B[p]
	}
	g.Dst[i] = s
}

// gemmVecTNRow computes dst[i] = A[:,i]·b for a k×m A (the Aᵀ·b case).
//
//hpnn:noalloc
func gemmVecTNRow(g *KernelArgs, i int) {
	m := g.M
	s := 0.0
	for p, bv := range g.B[:g.K] {
		s += g.A[p*m+i] * bv
	}
	g.Dst[i] = s
}

// MatMulSliceInto computes dst[m×n] = a[m×k]·b[k×n] on raw slices with the
// packed blocked kernel, serially: callers (the convolution layer's
// per-sample workers) already own the batch-level parallelism.
func MatMulSliceInto(dst, a, b []float64, m, k, n int) {
	checkSliceGEMM("MatMulSliceInto", dst, a, b, m*n, m*k, k*n)
	gemmRun(dst, a, b, m, n, k, gemmNN, false)
}

// MatMulNTSliceInto computes dst[m×n] = a[m×k]·b[n×k]ᵀ serially on raw
// slices with the packed blocked kernel.
func MatMulNTSliceInto(dst, a, b []float64, m, k, n int) {
	checkSliceGEMM("MatMulNTSliceInto", dst, a, b, m*n, m*k, n*k)
	gemmRun(dst, a, b, m, n, k, gemmNT, false)
}

// MatMulTNSliceInto computes dst[m×n] = a[k×m]ᵀ·b[k×n] serially on raw
// slices with the packed blocked kernel.
func MatMulTNSliceInto(dst, a, b []float64, k, m, n int) {
	checkSliceGEMM("MatMulTNSliceInto", dst, a, b, m*n, k*m, k*n)
	gemmRun(dst, a, b, m, n, k, gemmTN, false)
}

func checkSliceGEMM(what string, dst, a, b []float64, nd, na, nb int) {
	if len(dst) < nd || len(a) < na || len(b) < nb {
		panic("tensor: " + what + " operand shorter than its shape")
	}
}
