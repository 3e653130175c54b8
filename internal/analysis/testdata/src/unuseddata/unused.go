// Package unuseddata is the golden fixture for the unused check. It loads
// as the root package of a module named unuseddata, so its exported
// functions, and the exported methods of the types it names, are roots;
// cmd/tool's main is another. Every declaration no root reaches carries a
// `// want` expectation.
package unuseddata

import (
	"fmt"

	"unuseddata/lib"
)

// Thing re-exports lib.Thing: its exported methods are public API.
type Thing = lib.Thing

// shape is dispatched on dynamically; area is reached only through it.
type shape interface{ area() float64 }

type square struct{ side float64 }

func (s square) area() float64 { return s.side * s.side }

func (s square) perimeter() float64 { return 4 * s.side } // want "method square.perimeter is reached from no program"

// circle is named by a type switch but never instantiated, so no interface
// call can reach its area.
type circle struct{ r float64 }

func (c circle) area() float64 { return 3 * c.r * c.r } // want "method circle.area is reached from no program"

// Area calls through the interface.
func Area(side float64) (float64, string) {
	var s shape = square{side: side}
	kind := "other"
	switch s.(type) {
	case circle:
		kind = "circle"
	}
	return s.area(), kind
}

// code and failure are reached through the standard library's fmt.Stringer
// and error: nothing in the module calls String or Error by name.
type code int

func (c code) String() string { return fmt.Sprintf("code-%d", int(c)) }

func (c code) unusedHelper() int { return int(c) } // want "method code.unusedHelper is reached from no program"

type failure struct{ code code }

func (f failure) Error() string { return "failure " + f.code.String() }

// Fail returns an error value and prints a code.
func Fail() error {
	fmt.Println(code(7))
	return failure{code: 3}
}

// Functions reached only as values: a map entry, a struct field and a
// worker-pool kernel argument.
func viaMap() int              { return 1 }
func viaField() int            { return 2 }
func viaKernel(ctx any, i int) {}

type hooks struct{ onStep func() int }

func parallel(n int, ctx any, kernel func(ctx any, i int)) {
	for i := 0; i < n; i++ {
		kernel(ctx, i)
	}
}

// Values stores and passes functions without calling them by name.
func Values() int {
	table := map[string]func() int{"a": viaMap}
	h := hooks{onStep: viaField}
	parallel(2, nil, viaKernel)
	return table["a"]() + h.onStep()
}

// init and package-level initializers are roots.
var registry = buildRegistry()

func buildRegistry() []string { return []string{"x"} }

func init() { initOnly() }

func initOnly() {}

// Generic functions are reached through their instantiations.
func mapInts[T any](xs []T, f func(T) T) []T {
	for i, x := range xs {
		xs[i] = f(x)
	}
	return xs
}

func double(x int) int { return 2 * x }

// Doubled instantiates mapInts.
func Doubled() []int { return mapInts([]int{1, 2}, double) }

func neverInstantiated[T any](x T) T { return x } // want "func neverInstantiated is reached from no program"

// fmaKernel's body lives in assembly: bodiless declarations are never
// reported.
func fmaKernel(a, b *float64, n int)

func orphan() {} // want "func orphan is reached from no program"

type orphanType struct{} // want "type orphanType is reached from no program"

//hpnn:allow(unused) kept as the reference the tests compare against
func withReason() {}

/* want `//hpnn:allow\(unused\) requires a reason` */ //hpnn:allow(unused)
func withoutReason() int {
	return 0
}
