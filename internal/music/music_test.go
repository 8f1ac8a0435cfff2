package music

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/linalg"
	"mlink/internal/propagation"
)

const lambda = propagation.SpeedOfLight / channel.CenterFreqChannel11

func ulaOffsets(n int) []float64 {
	out := make([]float64, n)
	for m := 0; m < n; m++ {
		out[m] = (float64(m) - float64(n-1)/2) * lambda / 2
	}
	return out
}

// syntheticFrames builds CSI frames carrying plane waves from the given
// angles (degrees) with the given amplitudes, plus white noise.
func syntheticFrames(t *testing.T, anglesDeg, amps []float64, nFrames int, snrDB float64, seed int64) []*csi.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	est, err := NewEstimator(ulaOffsets(3), lambda)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*csi.Frame, 0, nFrames)
	for fi := 0; fi < nFrames; fi++ {
		f := &csi.Frame{
			CSI:  make([][]complex128, 3),
			RSSI: make([]float64, 3),
		}
		for ant := range f.CSI {
			f.CSI[ant] = make([]complex128, 30)
		}
		for k := 0; k < 30; k++ {
			for src := range anglesDeg {
				// Random per-snapshot source phase decorrelates the sources.
				ph := rng.Float64() * 2 * math.Pi
				sv := steering(est, geom.DegToRad(anglesDeg[src]))
				for ant := 0; ant < 3; ant++ {
					f.CSI[ant][k] += complex(amps[src], 0) * sv[ant] *
						complex(math.Cos(ph), math.Sin(ph))
				}
			}
			if snrDB > 0 {
				sigma := math.Sqrt(math.Pow(10, -snrDB/10) / 2)
				for ant := 0; ant < 3; ant++ {
					f.CSI[ant][k] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator([]float64{0}, lambda); !errors.Is(err, ErrBadInput) {
		t.Fatalf("1-element err = %v", err)
	}
	if _, err := NewEstimator(ulaOffsets(3), 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero wavelength err = %v", err)
	}
}

// planPseudospectrum runs the production path: PseudospectrumInto on a
// fresh Plan.
func planPseudospectrum(e *Estimator, r *linalg.Matrix, nSignals int) (*Spectrum, error) {
	plan, err := e.NewPlan()
	if err != nil {
		return nil, err
	}
	spec := &Spectrum{}
	if err := plan.PseudospectrumInto(spec, r, nSignals, nil); err != nil {
		return nil, err
	}
	return spec, nil
}

// TestSteeringBroadside checks the Plan's steering rows on the default
// 1° grid, where row i is the angle i-90°.
func TestSteeringBroadside(t *testing.T) {
	est, _ := NewEstimator(ulaOffsets(3), lambda)
	plan, err := est.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []complex128 { return plan.steer[i*plan.nAnt : (i+1)*plan.nAnt] }
	sv := row(90)
	for m, v := range sv {
		if math.Abs(real(v)-1) > 1e-12 || math.Abs(imag(v)) > 1e-12 {
			t.Fatalf("broadside steering[%d] = %v, want 1", m, v)
		}
	}
	// At 90° with λ/2 spacing, adjacent elements differ by π.
	sv90 := row(180)
	dphi := phaseOf(sv90[1]) - phaseOf(sv90[0])
	if math.Abs(math.Abs(dphi)-math.Pi) > 1e-9 {
		t.Fatalf("endfire phase step = %v, want ±π", dphi)
	}
}

func phaseOf(v complex128) float64 { return math.Atan2(imag(v), real(v)) }

// trace returns the sum of a square matrix's diagonal elements.
func trace(m *linalg.Matrix) complex128 {
	var sum complex128
	for i := 0; i < m.Rows(); i++ {
		sum += m.At(i, i)
	}
	return sum
}

func TestCovarianceProperties(t *testing.T) {
	frames := syntheticFrames(t, []float64{20}, []float64{1}, 5, 30, 1)
	r, err := Covariance(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 3 || r.Cols() != 3 {
		t.Fatalf("shape %dx%d", r.Rows(), r.Cols())
	}
	if !r.IsHermitian(1e-9) {
		t.Fatal("covariance not Hermitian")
	}
	if tr := trace(r); real(tr) <= 0 {
		t.Fatalf("trace = %v", tr)
	}
}

func TestCovarianceErrors(t *testing.T) {
	if _, err := Covariance(nil, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty err = %v", err)
	}
	frames := syntheticFrames(t, []float64{0}, []float64{1}, 2, 30, 2)
	if _, err := Covariance(frames, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("weight len err = %v", err)
	}
	zero := make([]float64, 30)
	if _, err := Covariance(frames, zero); !errors.Is(err, ErrBadInput) {
		t.Fatalf("all-zero weights err = %v", err)
	}
	// Shape mismatch across frames.
	bad := append(frames, &csi.Frame{CSI: [][]complex128{{1}}, RSSI: []float64{0}})
	if _, err := Covariance(bad, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("shape mismatch err = %v", err)
	}
}

func TestPseudospectrumSingleSource(t *testing.T) {
	for _, angle := range []float64{-40, -15, 0, 25, 55} {
		frames := syntheticFrames(t, []float64{angle}, []float64{1}, 10, 30, int64(100+angle))
		r, err := Covariance(frames, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, _ := NewEstimator(ulaOffsets(3), lambda)
		spec, err := planPseudospectrum(est, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.DominantAngle()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-angle) > 3 {
			t.Fatalf("angle %v estimated as %v", angle, got)
		}
	}
}

func TestPseudospectrumTwoSources(t *testing.T) {
	// Two well-separated sources resolvable with 3 antennas.
	frames := syntheticFrames(t, []float64{-30, 40}, []float64{1, 0.8}, 40, 35, 7)
	r, err := Covariance(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := NewEstimator(ulaOffsets(3), lambda)
	spec, err := planPseudospectrum(est, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	peaks := spec.Peaks(2)
	if len(peaks) < 2 {
		t.Fatalf("found %d peaks, want 2", len(peaks))
	}
	found := map[string]bool{}
	for _, p := range peaks {
		if math.Abs(p.AngleDeg-(-30)) < 8 {
			found["a"] = true
		}
		if math.Abs(p.AngleDeg-40) < 8 {
			found["b"] = true
		}
	}
	if !found["a"] || !found["b"] {
		t.Fatalf("peaks %+v do not cover both sources", peaks)
	}
}

func TestPseudospectrumAutoSignals(t *testing.T) {
	frames := syntheticFrames(t, []float64{10}, []float64{1}, 10, 30, 9)
	r, _ := Covariance(frames, nil)
	est, _ := NewEstimator(ulaOffsets(3), lambda)
	spec, err := planPseudospectrum(est, r, 0) // auto-estimate
	if err != nil {
		t.Fatal(err)
	}
	got, _ := spec.DominantAngle()
	if math.Abs(got-10) > 4 {
		t.Fatalf("auto-signal estimate angle = %v", got)
	}
}

func TestPseudospectrumClampsSignals(t *testing.T) {
	frames := syntheticFrames(t, []float64{10}, []float64{1}, 5, 30, 10)
	r, _ := Covariance(frames, nil)
	est, _ := NewEstimator(ulaOffsets(3), lambda)
	// Requesting too many signals must clamp, not fail.
	if _, err := planPseudospectrum(est, r, 10); err != nil {
		t.Fatalf("clamped pseudospectrum err = %v", err)
	}
	// Covariance size mismatch must fail.
	if _, err := planPseudospectrum(est, linalg.NewMatrix(2, 2), 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("size mismatch err = %v", err)
	}
}

func TestEstimateSignals(t *testing.T) {
	tests := []struct {
		values []float64
		want   int
	}{
		{[]float64{10, 0.1, 0.05}, 1},
		{[]float64{10, 5, 0.05}, 2},
		{[]float64{10, 9, 8}, 2}, // clamped to n-1
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
	}
	for _, tc := range tests {
		if got := EstimateSignals(tc.values, 0.08); got != tc.want {
			t.Fatalf("EstimateSignals(%v) = %d, want %d", tc.values, got, tc.want)
		}
	}
}

func TestNormalized(t *testing.T) {
	s := &Spectrum{AnglesDeg: []float64{-1, 0, 1}, Power: []float64{1, 4, 2}}
	n := s.Normalized()
	if n.Power[1] != 1 || n.Power[0] != 0.25 {
		t.Fatalf("normalized = %v", n.Power)
	}
	// Original untouched.
	if s.Power[1] != 4 {
		t.Fatal("Normalized mutated input")
	}
	// Inf handling.
	inf := &Spectrum{AnglesDeg: []float64{0, 1}, Power: []float64{math.Inf(1), 2}}
	ni := inf.Normalized()
	if ni.Power[0] != 1 {
		t.Fatalf("inf normalized = %v", ni.Power)
	}
	// All-zero spectrum survives.
	z := &Spectrum{AnglesDeg: []float64{0}, Power: []float64{0}}
	if zp := z.Normalized(); zp.Power[0] != 0 {
		t.Fatalf("zero normalize = %v", zp.Power)
	}
}

func TestPeaksOrderingAndEdges(t *testing.T) {
	s := &Spectrum{
		AnglesDeg: []float64{-2, -1, 0, 1, 2},
		Power:     []float64{5, 1, 3, 1, 4},
	}
	peaks := s.Peaks(0)
	if len(peaks) != 3 {
		t.Fatalf("peaks = %+v", peaks)
	}
	if peaks[0].Power != 5 || peaks[1].Power != 4 || peaks[2].Power != 3 {
		t.Fatalf("peak order wrong: %+v", peaks)
	}
	top := s.Peaks(1)
	if len(top) != 1 || top[0].AngleDeg != -2 {
		t.Fatalf("top peak = %+v", top)
	}
	empty := &Spectrum{}
	if _, err := empty.DominantAngle(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty dominant err = %v", err)
	}
}

// TestEndToEndAoAFromRayTracer is the key integration test: CSI generated by
// the physical simulator must yield a MUSIC LOS peak at the geometric angle.
func TestEndToEndAoAFromRayTracer(t *testing.T) {
	room, err := propagation.RectRoom(8, 8, propagation.Material{Name: "absorber", Reflectivity: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Array at (6,4) facing -x; TX placed so the LOS arrives at +25° from
	// broadside: direction from array to TX = π - 25°.
	arr, err := propagation.NewULA(geom.Point{X: 6, Y: 4}, math.Pi, 3, lambda/2)
	if err != nil {
		t.Fatal(err)
	}
	want := 25.0
	dir := math.Pi + geom.DegToRad(want)
	tx := geom.Point{X: 6 + 3*math.Cos(dir), Y: 4 + 3*math.Sin(dir)}
	env, err := propagation.NewEnvironment(room, tx, arr, propagation.DefaultLinkParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := channel.NewIntel5300Grid(channel.CenterFreqChannel11)
	if err != nil {
		t.Fatal(err)
	}
	x, err := csi.NewExtractor(env, grid, csi.Impairments{SNRdB: 30, NoiseEnabled: true, RandomCommonPhase: true}, 50, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	frames := x.CaptureN(20, nil)
	r, err := Covariance(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(arr.Offsets(), lambda)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := planPseudospectrum(est, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.DominantAngle()
	if err != nil {
		t.Fatal(err)
	}
	relWant := arr.RelativeAngle(tx.Sub(arr.Center).Angle())
	if math.Abs(geom.RadToDeg(relWant)-want) > 1e-6 {
		t.Fatalf("test geometry broken: relative angle %v", geom.RadToDeg(relWant))
	}
	if math.Abs(got-want) > 4 {
		t.Fatalf("AoA = %v°, want ≈%v°", got, want)
	}
}

func TestWeightedCovarianceFocusesSubcarriers(t *testing.T) {
	// Weighting one subcarrier to zero removes its snapshots: construct
	// frames where subcarrier 0 carries a -60° source and the rest carry a
	// +30° source; zeroing subcarrier 0 must leave only the +30° peak.
	est, _ := NewEstimator(ulaOffsets(3), lambda)
	rng := rand.New(rand.NewSource(21))
	frames := make([]*csi.Frame, 10)
	for fi := range frames {
		f := &csi.Frame{CSI: make([][]complex128, 3), RSSI: make([]float64, 3)}
		for ant := range f.CSI {
			f.CSI[ant] = make([]complex128, 30)
		}
		for k := 0; k < 30; k++ {
			angle := 30.0
			if k == 0 {
				angle = -60
			}
			ph := rng.Float64() * 2 * math.Pi
			sv := steering(est, geom.DegToRad(angle))
			for ant := 0; ant < 3; ant++ {
				f.CSI[ant][k] = sv[ant] * complex(math.Cos(ph), math.Sin(ph))
			}
		}
		frames[fi] = f
	}
	w := make([]float64, 30)
	for i := range w {
		w[i] = 1
	}
	w[0] = 0
	r, err := Covariance(frames, w)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := planPseudospectrum(est, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := spec.DominantAngle()
	if math.Abs(got-30) > 3 {
		t.Fatalf("weighted dominant angle = %v, want 30", got)
	}
}
