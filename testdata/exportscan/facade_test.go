package fixture_test

import (
	"testing"

	"fixture"
	"fixture/internal/pair"
)

// TestKnobs sets TestSet, which no non-test code sets.
func TestKnobs(t *testing.T) {
	fixture.Use()
	k := pair.Knobs{TestSet: 2}
	k.Count()
}
