// Package fixture is the export guard's test module: its facade calls A.Same
// directly and Impl.Run only through the Runner interface, re-exports
// pair.Exported by alias, and sets some of pair's struct fields.
package fixture

import "fixture/internal/pair"

// Exported is re-exported by alias, so its methods are library API.
type Exported = pair.Exported

// Use is the module's only non-test caller.
func Use() {
	pair.A{}.Same()
	var r pair.Runner = pair.Impl{}
	r.Run()
	k := pair.Knobs{Keyed: 1}
	k.Count()
	_ = pair.Point{1, 2}
}
