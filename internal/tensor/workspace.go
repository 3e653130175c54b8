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

// EnsureInts grows s to length n, reusing capacity. Contents are
// unspecified after a resize.
func EnsureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n) //hpnn:allow(noalloc) grow-on-first-use; steady state reuses capacity
	}
	return s[:n]
}
