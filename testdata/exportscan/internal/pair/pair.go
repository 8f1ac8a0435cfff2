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
