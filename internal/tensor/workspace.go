package tensor

// EnsureShape returns a tensor with the given shape, reusing t's storage
// whenever its capacity allows. A nil t allocates fresh; otherwise the data
// slice is resliced (growing only when capacity is exceeded) and the shape
// header is rewritten in place, so steady-state calls with a stable — or
// shrinking, or re-growing within capacity — shape perform no allocation.
//
// Contents after a resize are unspecified: callers that accumulate into the
// buffer must zero it first.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	need := Prod(shape)
	// The nil branch builds the tensor inline rather than calling New: New
	// retains its shape argument, which would make the variadic slice
	// escape — and heap-allocate — at every EnsureShape call site.
	if t == nil {
		t = &Tensor{} //hpnn:allow(noalloc) first-use allocation; steady state passes a live tensor
	}
	if cap(t.Data) < need {
		t.Data = make([]float64, need) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	} else {
		t.Data = t.Data[:need]
	}
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// ViewInto points view at data with the given shape, reusing the view's
// shape header. It is the allocation-free counterpart of FromSlice for hot
// paths that repeatedly re-window a larger buffer (batch slicing, reshape
// layers). The view shares data; it owns nothing.
func ViewInto(view *Tensor, data []float64, shape ...int) *Tensor {
	if len(data) != Prod(shape) {
		panic("tensor: ViewInto data length does not match shape")
	}
	view.Data = data
	view.Shape = append(view.Shape[:0], shape...)
	return view
}

// EnsureFloats grows s to length n, reusing capacity. Contents are
// unspecified after a resize.
func EnsureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	}
	return s[:n]
}

// EnsureInt32s grows s to length n, reusing capacity. Contents are
// unspecified after a resize.
func EnsureInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	}
	return s[:n]
}

// EnsureInts grows s to length n, reusing capacity. Contents are
// unspecified after a resize.
func EnsureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	}
	return s[:n]
}

// Workspace is a keyed arena of reusable tensor buffers: the backing store
// for plan-once/reuse-forever execution. Each key names one logical buffer
// whose storage persists across calls; requesting a key with a new shape
// resizes the buffer in place (see EnsureShape), so a steady-state caller
// that cycles through the same keys with stable shapes allocates nothing.
//
// Keys should be static strings (or strings built once at plan time):
// map lookups with an existing key do not allocate. A Workspace is not safe
// for concurrent use; give each execution context its own — the serving
// layer runs one workspace per shard for exactly this reason.
type Workspace struct {
	bufs   map[string]*Tensor
	sealed bool
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{bufs: make(map[string]*Tensor)} }

// Get returns the workspace buffer for key, (re)shaped to shape. Contents
// are unspecified when the shape changed; otherwise the previous contents
// are retained.
func (w *Workspace) Get(key string, shape ...int) *Tensor {
	if w.bufs == nil {
		w.bufs = make(map[string]*Tensor) //hpnn:allow(noalloc) lazy init of a zero-value Workspace; NewWorkspace pre-builds it
	}
	t, ok := w.bufs[key]
	if w.sealed && (!ok || cap(t.Data) < Prod(shape)) {
		panic("tensor: sealed workspace would allocate for key " + key)
	}
	t = EnsureShape(t, shape...)
	if !ok {
		w.bufs[key] = t
	}
	return t
}

// Seal freezes the workspace's memory footprint: after Seal, a Get that
// would create a new buffer or grow an existing one panics instead of
// allocating. Callers with a fixed working set (a serving shard after its
// warmup inference) use this to turn the steady-state zero-allocation
// invariant from a benchmark observation into an enforced runtime contract.
// Reshaping within existing capacity remains allowed.
func (w *Workspace) Seal() { w.sealed = true }

// Reset zeroes and drops every buffer, releasing the memory to the garbage
// collector, and lifts any seal. Zeroing first means no alias of a dropped
// buffer still reads what it held: the accelerator's Release relies on it
// to leave no weight codes or activations behind.
func (w *Workspace) Reset() {
	//hpnn:allow(determinism) order-independent full clear (the compiler's map-clear idiom)
	for k, t := range w.bufs {
		clear(t.Data[:cap(t.Data)])
		delete(w.bufs, k)
	}
	w.sealed = false
}

// Bytes reports the total bytes currently held by the workspace's buffers.
func (w *Workspace) Bytes() int {
	total := 0
	//hpnn:allow(determinism) order-independent sum
	for _, t := range w.bufs {
		total += cap(t.Data) * 8
	}
	return total
}
