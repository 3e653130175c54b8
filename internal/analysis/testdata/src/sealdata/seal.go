// Package sealdata is a golden fixture for the seal check. It declares its
// own Workspace type — the check matches any named Workspace, so the
// fixture needs no dependency on the real tensor package.
package sealdata

// Tensor stands in for the real buffer type.
type Tensor struct{ Data []float64 }

// Workspace mirrors the getter/Seal/Reset surface of tensor.Workspace.
type Workspace struct{ sealed bool }

func (w *Workspace) Get(key string, shape ...int) *Tensor                { return nil }
func (w *Workspace) MatVec(key string, a *Tensor, x []float64) []float64 { return nil }
func (w *Workspace) Seal()                                               { w.sealed = true }
func (w *Workspace) Reset()                                              { w.sealed = false }

// Bad requests a buffer after sealing: a new key here panics at run time.
func Bad(w *Workspace) {
	w.Get("a", 1)
	w.Seal()
	w.Get("b", 1) // want `w\.Get after w\.Seal\(\) in Bad`
}

// Lifted resets between Seal and Get, which lifts the seal: exempt.
func Lifted(w *Workspace) {
	w.Seal()
	w.Reset()
	w.Get("a", 1)
}

// TwoReceivers seals only a; getters on b stay legal.
func TwoReceivers(a, b *Workspace) {
	a.Seal()
	b.Get("x", 1)           // different receiver: exempt
	a.MatVec("y", nil, nil) // want `a\.MatVec after a\.Seal\(\) in TwoReceivers`
}
