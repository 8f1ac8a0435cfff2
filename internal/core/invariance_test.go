package core

import (
	"fmt"
	"math"
	"testing"

	"mlink/internal/csi"
	"mlink/internal/linalg"
	"mlink/internal/music"
	"mlink/internal/sanitize"
	"mlink/internal/scenario"
)

// invarianceTol bounds the relative disagreement between statistics of raw
// frames and of their sanitize.Frames output. Sanitizing multiplies
// subcarrier k of every antenna by the same rotor r_k = cos φ_k + j·sin φ_k,
// built by dsp.SincosFast, whose components are each within 2e-9 of exact.
// So |r_k| = 1 + ε with |ε| ≤ 2√2·1e-9 ≈ 2.9e-9, a power |r·h|² = |h|²·|r|²
// moves by at most 2|ε| + ε² ≈ 5.7e-9 relative, an amplitude by |ε|, and a
// per-subcarrier covariance entry Σ_f r_f x_i (r_f x_j)* = Σ_f |r_f|² x_i x_j*
// by at most that same 5.7e-9 times Σ_f |x_i x_j| ≤ √(R_ii·R_jj)
// (Cauchy–Schwarz), which is the scale the covariance check divides by.
// Floating-point rounding adds a few ulps (~1e-15) on top. 1e-8 leaves
// headroom over the documented rotor bound; the measured worst cases are
// ~1.9e-9 for power and ~9.5e-10 for amplitude.
const invarianceTol = 1e-8

// invarianceStream is 200 frames of one (link case, drift preset) stream.
type invarianceStream struct {
	name   string
	s      *scenario.Scenario
	frames []*csi.Frame
}

// invarianceStreams returns every (link case 1–5, drift preset) stream the
// invariance properties are checked over.
func invarianceStreams(t *testing.T) []invarianceStream {
	t.Helper()
	presets := []scenario.DriftPreset{
		scenario.NoDrift(),
		scenario.GainWalk(12),
		scenario.CFOWalk(60, 0.05),
		scenario.FurnitureMove(100),
	}
	var out []invarianceStream
	for c := 1; c <= 5; c++ {
		s, err := scenario.LinkCase(c, int64(c))
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range presets {
			stream, err := s.NewDriftStream(preset, 1)
			if err != nil {
				t.Fatal(err)
			}
			frames := make([]*csi.Frame, 200)
			for i := range frames {
				if frames[i], err = stream.Next(); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, invarianceStream{fmt.Sprintf("case%d/%s", c, preset.Kind), s, frames})
		}
	}
	return out
}

// TestSanitizeInvariance pins the property that lets scoring read raw
// frames: sanitizing removes one phase per subcarrier common to all
// antennas, so per-subcarrier power, amplitude and the per-subcarrier
// spatial covariance of raw and sanitized frames agree to invarianceTol.
func TestSanitizeInvariance(t *testing.T) {
	for _, st := range invarianceStreams(t) {
		name, raw := st.name, st.frames
		clean, err := sanitize.Frames(raw, st.s.Grid.Indices)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var worstPow, worstAmp, worstCov float64
		for i, f := range raw {
			for ant := range f.CSI {
				for k, h := range f.CSI[ant] {
					g := clean[i].CSI[ant][k]
					p, q := real(h)*real(h)+imag(h)*imag(h), real(g)*real(g)+imag(g)*imag(g)
					worstPow = math.Max(worstPow, math.Abs(p-q)/p)
					a, b := math.Hypot(real(h), imag(h)), math.Hypot(real(g), imag(g))
					worstAmp = math.Max(worstAmp, math.Abs(a-b)/a)
				}
			}
		}
		rawParts, err := music.NewPartials(raw)
		if err != nil {
			t.Fatal(err)
		}
		cleanParts, err := music.NewPartials(clean)
		if err != nil {
			t.Fatal(err)
		}
		nAnt, nSub := raw[0].NumAntennas(), raw[0].NumSubcarriers()
		oneHot := make([]float64, nSub)
		var rc, cc linalg.Matrix
		for k := 0; k < nSub; k++ {
			clear(oneHot)
			oneHot[k] = 1
			if err := rawParts.CovarianceInto(&rc, oneHot); err != nil {
				t.Fatal(err)
			}
			if err := cleanParts.CovarianceInto(&cc, oneHot); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nAnt; i++ {
				for j := 0; j < nAnt; j++ {
					scale := math.Sqrt(real(rc.At(i, i)) * real(rc.At(j, j)))
					d := rc.At(i, j) - cc.At(i, j)
					worstCov = math.Max(worstCov, math.Hypot(real(d), imag(d))/scale)
				}
			}
		}
		if worstPow > invarianceTol || worstAmp > invarianceTol || worstCov > invarianceTol {
			t.Errorf("%s: raw vs sanitized relative disagreement power %.3g, amplitude %.3g, covariance %.3g > %g",
				name, worstPow, worstAmp, worstCov, invarianceTol)
		}
	}
}

// TestSanitizedProfileStillScores pins that profiles persisted by earlier
// builds, which calibrated on phase-sanitized frames and stored those frames
// in version 1 records, keep scoring raw windows: for every scheme and link
// case 1–5, such a record decodes (the partials rebuilt from its frames) to
// a profile that scores empty and occupied raw windows within 1e-6 relative
// of a profile calibrated on the raw frames. The fingerprints and
// covariances agree to invarianceTol; the path scheme's MUSIC weights and
// the dB distances amplify that a little.
func TestSanitizedProfileStillScores(t *testing.T) {
	const tol = 1e-6
	for c := 1; c <= 5; c++ {
		s, cal, windows := recordCase(t, c)
		clean, err := sanitize.Frames(cal, s.Grid.Indices)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
			cfg := DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
			fresh, err := Calibrate(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			old, err := Calibrate(cfg, clean)
			if err != nil {
				t.Fatal(err)
			}
			if old, err = UnmarshalProfile(cfg, appendProfileV1(t, nil, cfg, old, clean)); err != nil {
				t.Fatal(err)
			}
			k, err := NewKernel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := NewScratch()
			for i, w := range windows {
				want, err := k.Score(fresh, w, sc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := k.Score(old, w, sc)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got-want) / math.Abs(want); !(d <= tol) {
					t.Errorf("case %d %s window %d: sanitized-profile score %v, raw-profile score %v (relative %.3g > %g)",
						c, scheme, i, got, want, d, tol)
				}
			}
		}
	}
}
