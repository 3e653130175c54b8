// Package lib is not the root package: its exported functions are reached
// only through the root package's re-exports and cmd/tool's main.
package lib

// Thing is re-exported by the root package.
type Thing struct{ n int }

// Count is exported API of a re-exported type.
func (t *Thing) Count() int { return t.n }

func (t *Thing) helper() int { return t.n } // want "method Thing.helper is reached from no program"

// Used is called by cmd/tool's main.
func Used() int { return 1 }

// Unused is exported, but no root calls it.
func Unused() int { return 2 } // want "func Unused is reached from no program"
