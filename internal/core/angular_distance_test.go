package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mlink/internal/body"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/linalg"
	"mlink/internal/music"
	"mlink/internal/scenario"
)

// angularSteps are the scan-grid resolutions the fused-kernel suites cover:
// the 181-row default, a 361-row grid and the 3601-row fine grid of the
// path-fine workload.
var angularSteps = []float64{1, 0.5, 0.05}

// angularFixture calibrates a path-scheme kernel for a link case on a scan
// grid of stepDeg and returns it with its profile and the extractor that
// produced the calibration frames, for drawing monitoring windows.
func angularFixture(tb testing.TB, linkCase int, seed int64, stepDeg float64) (*Kernel, *Profile, *scenario.Scenario, *csi.Extractor) {
	tb.Helper()
	cfg, s := pathConfig(tb, linkCase, seed, stepDeg)
	x, err := s.NewExtractor(seed)
	if err != nil {
		tb.Fatal(err)
	}
	profile, err := Calibrate(cfg, x.CaptureN(60, nil))
	if err != nil {
		tb.Fatal(err)
	}
	k, err := NewKernel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return k, profile, s, x
}

// naiveAngularDistance is the spectrum-at-a-time form of the angular stage:
// two materialized Bartlett spectra, then the dB distance over them.
func naiveAngularDistance(plan *music.Plan, mon, cal *linalg.Matrix, weights []float64, monSpec, calSpec *music.Spectrum) (float64, error) {
	if err := plan.BartlettInto(monSpec, mon); err != nil {
		return 0, err
	}
	if err := plan.BartlettInto(calSpec, cal); err != nil {
		return 0, err
	}
	return weightedSpectrumDistanceDB(monSpec, calSpec, weights)
}

// TestBartlettDistanceMatchesSpectraBitwise pins the path scheme's fused
// angular kernel to the spectrum-at-a-time reference bit for bit, on every
// link case and scan step, for an empty window, a person on the link
// midpoint and a person off the path: Score's result must equal the
// reference evaluated on the very covariances Score left in its scratch.
func TestBartlettDistanceMatchesSpectraBitwise(t *testing.T) {
	var monSpec, calSpec music.Spectrum
	for c := 1; c <= scenario.NumLinkCases; c++ {
		for _, step := range angularSteps {
			k, profile, s, x := angularFixture(t, c, int64(c), step)
			sc := NewScratch()
			mid := s.LinkMidpoint()
			windows := []struct {
				name   string
				bodies []body.Body
			}{
				{"empty", nil},
				{"midpoint", []body.Body{body.Default(mid)}},
				{"off-path", []body.Body{body.Default(geom.Point{X: mid.X + 2, Y: mid.Y + 2})}},
			}
			for _, win := range windows {
				name := win.name
				got, err := k.Score(profile, x.CaptureN(25, win.bodies), sc)
				if err != nil {
					t.Fatalf("case %d step %v %s: %v", c, step, name, err)
				}
				want, err := naiveAngularDistance(k.plan, &sc.monCov, &sc.calCov, profile.PathWeights, &monSpec, &calSpec)
				if err != nil {
					t.Fatalf("case %d step %v %s: reference: %v", c, step, name, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d step %v %s: fused %v (%#x) != spectra %v (%#x)",
						c, step, name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// randomCovariance fills r with (1/n)·Σ x·xᴴ over n random complex
// snapshots: n = 1 gives a rank-one covariance whose Bartlett spectrum has
// exact nulls, where rounding can push a power to or below the 1e-30 floor.
func randomCovariance(r *linalg.Matrix, nAnt, n int, rng *rand.Rand) {
	r.Reuse(nAnt, nAnt) // zeroed
	x := make([]complex128, nAnt)
	for s := 0; s < n; s++ {
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < nAnt; i++ {
			for j := 0; j < nAnt; j++ {
				r.Set(i, j, r.At(i, j)+x[i]*cmplx.Conj(x[j])/complex(float64(n), 0))
			}
		}
	}
}

// TestBartlettDistanceArraysBitwise covers 2-, 3- and 4-element arrays on
// every scan step with random full-rank and rank-one covariances and
// Eq. 17-shaped weights: zero outside (−60°, 60°), positive inside, with
// scattered exact zeros. The fused kernel must match the reference's bits.
func TestBartlettDistanceArraysBitwise(t *testing.T) {
	s, err := scenario.LinkCase(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	var mon, cal linalg.Matrix
	var monSpec, calSpec music.Spectrum
	for _, nAnt := range []int{2, 3, 4} {
		cfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, nil)
		spacing := cfg.wavelength() / 2
		cfg.ArrayOffsets = make([]float64, nAnt)
		for m := range cfg.ArrayOffsets {
			cfg.ArrayOffsets[m] = (float64(m) - float64(nAnt-1)/2) * spacing
		}
		for _, step := range angularSteps {
			cfg.SpectrumStepDeg = step
			est, err := newEstimator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := est.NewPlan()
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.BartlettInto(&calSpec, linalg.NewMatrix(nAnt, nAnt)); err != nil {
				t.Fatal(err)
			}
			weights := make([]float64, len(calSpec.AnglesDeg))
			for trial := 0; trial < 8; trial++ {
				for i, a := range calSpec.AnglesDeg {
					weights[i] = 0
					if a > -60 && a < 60 && rng.Intn(10) > 0 {
						weights[i] = rng.ExpFloat64() * 100
					}
				}
				randomCovariance(&mon, nAnt, 1+trial%2*7, rng)
				randomCovariance(&cal, nAnt, 1+(trial/2)%2*7, rng)
				got, err := plan.BartlettDistanceDB(&mon, &cal, weights)
				if err != nil {
					t.Fatal(err)
				}
				want, err := naiveAngularDistance(plan, &mon, &cal, weights, &monSpec, &calSpec)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d elements step %v trial %d: fused %v != spectra %v", nAnt, step, trial, got, want)
				}
			}
		}
	}
}

// TestBartlettDistanceEdges pins the kernel's floors and errors: a zero
// covariance floors both powers (score exactly 0, as in the reference);
// all-zero and wrong-length weights and a wrong-sized covariance are
// music.ErrBadInput, and the weight errors reach Score's callers as
// core.ErrBadInput. A warm call allocates nothing.
func TestBartlettDistanceEdges(t *testing.T) {
	k, profile, _, x := angularFixture(t, 2, 5, 0.05)
	window := x.CaptureN(25, nil)
	sc := NewScratch()
	if _, err := k.Score(profile, window, sc); err != nil {
		t.Fatal(err)
	}

	zero := linalg.NewMatrix(3, 3)
	var monSpec, calSpec music.Spectrum
	for _, pair := range [][2]*linalg.Matrix{{zero, zero}, {zero, &sc.calCov}, {&sc.monCov, zero}} {
		got, err := k.plan.BartlettDistanceDB(pair[0], pair[1], profile.PathWeights)
		if err != nil {
			t.Fatal(err)
		}
		want, err := naiveAngularDistance(k.plan, pair[0], pair[1], profile.PathWeights, &monSpec, &calSpec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("zero covariance: fused %v != spectra %v", got, want)
		}
	}
	if got, _ := k.plan.BartlettDistanceDB(zero, zero, profile.PathWeights); got != 0 {
		t.Fatalf("both powers floored: score %v, want 0", got)
	}

	n := len(profile.PathWeights)
	for name, w := range map[string][]float64{
		"all-zero": make([]float64, n),
		"short":    profile.PathWeights[:n-1],
		"long":     append(append([]float64(nil), profile.PathWeights...), 1),
	} {
		if _, err := k.plan.BartlettDistanceDB(&sc.monCov, &sc.calCov, w); !errors.Is(err, music.ErrBadInput) {
			t.Fatalf("%s weights: kernel err %v, want music.ErrBadInput", name, err)
		}
		bad := *profile
		bad.PathWeights = w
		if _, err := k.Score(&bad, window, sc); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s weights: Score err %v, want core.ErrBadInput", name, err)
		}
	}
	if _, err := k.plan.BartlettDistanceDB(linalg.NewMatrix(2, 2), &sc.calCov, profile.PathWeights); !errors.Is(err, music.ErrBadInput) {
		t.Fatalf("2x2 covariance on a 3-element plan: err %v, want music.ErrBadInput", err)
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := k.plan.BartlettDistanceDB(&sc.monCov, &sc.calCov, profile.PathWeights); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm fused kernel allocates %v/op, want 0", allocs)
	}
}

// BenchmarkAngularDistance times the path scheme's angular stage for one
// window on the 0.05° (3601-row) scan grid: naive writes both Bartlett
// spectra and takes the dB distance over them, cached is the fused
// single-pass kernel the scorer runs.
func BenchmarkAngularDistance(b *testing.B) {
	k, profile, _, x := angularFixture(b, 2, 5, 0.05)
	sc := NewScratch()
	if _, err := k.Score(profile, x.CaptureN(25, nil), sc); err != nil {
		b.Fatal(err)
	}
	b.Run("naive/window", func(b *testing.B) {
		var monSpec, calSpec music.Spectrum
		if _, err := naiveAngularDistance(k.plan, &sc.monCov, &sc.calCov, profile.PathWeights, &monSpec, &calSpec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := naiveAngularDistance(k.plan, &sc.monCov, &sc.calCov, profile.PathWeights, &monSpec, &calSpec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached/window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := k.plan.BartlettDistanceDB(&sc.monCov, &sc.calCov, profile.PathWeights); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pathConfig is a path-scheme config for a link case on a scan grid of
// stepDeg.
func pathConfig(tb testing.TB, linkCase int, seed int64, stepDeg float64) (Config, *scenario.Scenario) {
	tb.Helper()
	s, err := scenario.LinkCase(linkCase, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
	cfg.SpectrumStepDeg = stepDeg
	return cfg, s
}

// TestKernelPlansSharedPerGeometry: a kernel holds its geometry's shared
// plan — the one Calibrate's estimator resolves to — so links with one
// array share a steering table. The five link cases' arrays differ in the
// last bits of their offsets, and cases 2 and 3 share one with a −0 middle
// element, so they map to four plans.
func TestKernelPlansSharedPerGeometry(t *testing.T) {
	plans := map[int]*music.Plan{}
	distinct := map[*music.Plan]bool{}
	for c := 1; c <= scenario.NumLinkCases; c++ {
		cfg, _ := pathConfig(t, c, int64(c), 0.05)
		k, err := NewKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := newEstimator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		calPlan, err := est.NewPlan()
		if err != nil {
			t.Fatal(err)
		}
		if k.plan != calPlan {
			t.Fatalf("case %d: kernel and calibration hold different plans", c)
		}
		plans[c], distinct[k.plan] = k.plan, true
	}
	if len(distinct) != 4 || plans[2] != plans[3] {
		t.Fatalf("five link cases map to %d plans (cases 2 and 3 shared: %v), want 4 with 2 and 3 shared",
			len(distinct), plans[2] == plans[3])
	}
}

// BenchmarkLinkCalibration times one path-scheme link's calibration on the
// 0.05-degree (3601-row) grid, as the engine runs it: Calibrate on 150
// frames, NewDetector, then the threshold from 150 held-out frames
// (SelfScores + CalibrateThreshold).
func BenchmarkLinkCalibration(b *testing.B) {
	cfg, s := pathConfig(b, 2, 5, 0.05)
	x, err := s.NewExtractor(5)
	if err != nil {
		b.Fatal(err)
	}
	cal, holdout := x.CaptureN(150, nil), x.CaptureN(150, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		profile, err := Calibrate(cfg, cal)
		if err != nil {
			b.Fatal(err)
		}
		d, err := NewDetector(cfg, profile)
		if err != nil {
			b.Fatal(err)
		}
		null, err := d.SelfScores(holdout, 25, 25)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.CalibrateThreshold(null, ThresholdQuantile, DefaultThresholdMargin); err != nil {
			b.Fatal(err)
		}
	}
}
