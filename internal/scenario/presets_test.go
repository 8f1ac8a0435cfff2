package scenario

import "testing"

// TestLinkCasesFleet builds the NumLinkCases evaluation links of Fig. 6 as
// one fleet, a distinct seed per case, as the multi-link deployments do.
func TestLinkCasesFleet(t *testing.T) {
	names := make(map[string]bool)
	seeds := make(map[int64]bool)
	for i := 0; i < NumLinkCases; i++ {
		s, err := LinkCase(i+1, 3+int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if names[s.Name] {
			t.Errorf("duplicate case name %q", s.Name)
		}
		names[s.Name] = true
		if seeds[s.Seed] {
			t.Errorf("cases share seed %d — fleet links must be independent", s.Seed)
		}
		seeds[s.Seed] = true
		if s.LinkLength() <= 0 {
			t.Errorf("case %d has zero link length", i+1)
		}
	}
}
