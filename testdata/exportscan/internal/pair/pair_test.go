package pair

import "testing"

// TestNamesakes calls A.Same, B.Same's namesake, and Recur.
func TestNamesakes(t *testing.T) {
	A{}.Same()
	Recur(1)
}
