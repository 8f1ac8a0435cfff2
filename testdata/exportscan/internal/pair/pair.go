// Package pair declares two types with a method of the same name.
package pair

// A has Same, which the facade calls.
type A struct{}

// Same is called on A.
func (A) Same() {}

// B has Same too, which nothing calls.
type B struct{}

// Same is never called on B.
func (B) Same() {}

// Runner is the interface the facade calls Run through.
type Runner interface{ Run() }

// Impl implements Runner.
type Impl struct{}

// Run is reached only through Runner.
func (Impl) Run() {}

// Exported is aliased by the facade.
type Exported struct{}

// Method is never called, but Exported is library API.
func (Exported) Method() { Helper() }

// Helper is called only by Exported.Method.
func Helper() {}

// Recur calls only itself.
func Recur(n int) {
	if n > 0 {
		Recur(n - 1)
	}
}

// Knobs has one field of each fate.
type Knobs struct {
	Defaulted int // set only in withDefaults
	TestSet   int // set only by a test
	Keyed     int // set by the facade's composite literal
	Counted   int // set by Count
}

func (k Knobs) withDefaults() Knobs {
	if k.Defaulted == 0 {
		k.Defaulted = 1
	}
	return k
}

// Count bumps Counted.
func (k *Knobs) Count() int {
	k.Counted++
	return k.withDefaults().Defaulted
}

// Point is set positionally.
type Point struct{ X, Y int }
