package core

import (
	"math"
	"testing"

	"mlink/internal/body"
	"mlink/internal/geom"
)

// TestScratchMultipathFactorsParity checks the allocation-free scratch path
// is bit-identical to the allocating MultipathFactors, including after the
// scratch has been used on other rows (buffer reuse must not leak state).
func TestScratchMultipathFactorsParity(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 42)
	sc := NewScratch()
	dst := make([]float64, grid.Len())
	for i := 0; i < 10; i++ {
		f := x.Capture(nil)
		for ant := range f.CSI {
			want, err := MultipathFactors(f.CSI[ant], grid)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.MultipathFactorsInto(dst, f.CSI[ant], grid); err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if dst[k] != want[k] {
					t.Fatalf("packet %d ant %d sub %d: scratch %v != fresh %v", i, ant, k, dst[k], want[k])
				}
			}
		}
	}
}

func TestScratchMultipathFactorsBadInput(t *testing.T) {
	_, grid := testLink(t, true)
	sc := NewScratch()
	row := make([]complex128, grid.Len())
	if err := sc.MultipathFactorsInto(make([]float64, grid.Len()), row, nil); err == nil {
		t.Fatal("nil grid accepted")
	}
	if err := sc.MultipathFactorsInto(make([]float64, 3), row, grid); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := sc.MultipathFactorsInto(make([]float64, grid.Len()), row[:5], grid); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestScoreScratchParity checks that a reused scratch produces exactly the
// scores of the allocating path for every scheme, across several windows.
func TestScoreScratchParity(t *testing.T) {
	env, grid := testLink(t, true)
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		x := testExtractor(t, env, grid, 7)
		cfg := DefaultConfig(grid, scheme, env.RX.Offsets())
		profile, err := Calibrate(cfg, x.CaptureN(100, nil))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		det, err := NewDetector(cfg, profile)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		sc := NewScratch()
		person := []body.Body{body.Default(geom.Point{X: 3, Y: 4})}
		for i := 0; i < 3; i++ {
			bodies := person
			if i%2 == 0 {
				bodies = nil
			}
			window := x.CaptureN(10, bodies)
			want, err := det.ScoreScratch(window, NewScratch())
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			got, err := det.ScoreScratch(window, sc)
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("%v window %d: scratch score %v != fresh score %v", scheme, i, got, want)
			}
		}
	}
}
