package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/dsp"
	"mlink/internal/sanitize"
	"mlink/internal/scenario"
)

// naiveWindowWeights is the reference for the subcarrier weights stage
// (Kernel.windowWeights): the Eq. 11 multipath factors through the O(n²)
// matrix IDFT, and the Eq. 13–15 weights from quickselect-median stability
// ratios, allocating as it goes.
func naiveWindowWeights(window []*csi.Frame, grid *channel.Grid) ([][]float64, error) {
	nAnt, nSub := window[0].NumAntennas(), window[0].NumSubcarriers()
	var sc Scratch
	sc.bindGrid(grid)
	// A plan of size 0 has no prime-factor plan, and Transform.IDFTInto
	// sends every length it was not planned for to the matrix dsp.IDFTInto.
	sc.xform = dsp.NewTransform(0)
	out := make([][]float64, nAnt)
	for ant := range out {
		meanMu := make([]float64, nSub)
		ratio := make([]float64, nSub)
		for _, f := range window {
			mu := make([]float64, nSub)
			if err := sc.MultipathFactorsInto(mu, f.CSI[ant], grid); err != nil {
				return nil, err
			}
			med, err := dsp.MedianQuickselect(append([]float64(nil), mu...))
			if err != nil {
				return nil, err
			}
			for i, v := range mu {
				meanMu[i] += v
				if v > med {
					ratio[i]++
				}
			}
		}
		var sumMu, sumR float64
		for i := range meanMu {
			meanMu[i] /= float64(len(window))
			ratio[i] /= float64(len(window))
			sumMu += meanMu[i]
			sumR += ratio[i]
		}
		out[ant] = make([]float64, nSub)
		for i := range out[ant] {
			out[ant][i] = math.Abs(meanMu[i] * ratio[i] / (sumMu * sumR))
		}
	}
	return out, nil
}

// weightsFixture returns a 25-packet window of a three-antenna link case and
// the kernel that scores it.
func weightsFixture(tb testing.TB, linkCase int, seed int64) (*Kernel, []*csi.Frame) {
	tb.Helper()
	s, err := scenario.LinkCase(linkCase, seed)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := NewKernel(DefaultConfig(s.Grid, SchemeSubcarrier, s.Env.RX.Offsets()))
	if err != nil {
		tb.Fatal(err)
	}
	return k, x.CaptureN(25, nil)
}

// TestWindowWeightsMatchNaive pins the weights stage — prime-factor IDFT
// plus network medians — to the matrix-IDFT/quickselect reference on every
// link case.
func TestWindowWeightsMatchNaive(t *testing.T) {
	for c := 1; c <= scenario.NumLinkCases; c++ {
		k, window := weightsFixture(t, c, int64(c))
		want, err := naiveWindowWeights(window, k.cfg.Grid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.windowWeights(window, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		for ant := range want {
			for i := range want[ant] {
				if d := math.Abs(got[ant][i] - want[ant][i]); d > 1e-12*math.Abs(want[ant][i]) {
					t.Fatalf("case %d antenna %d subcarrier %d: weight %v, reference %v", c, ant, i, got[ant][i], want[ant][i])
				}
			}
		}
	}
}

// BenchmarkSubcarrierWeights times the subcarrier weights stage of one
// 25-packet, three-antenna window (75 multipath-factor rows and their
// medians): naive is the matrix-IDFT/quickselect reference, cached the
// scoring path on a warm scratch.
func BenchmarkSubcarrierWeights(b *testing.B) {
	k, window := weightsFixture(b, 2, 5)
	b.Run("naive/window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := naiveWindowWeights(window, k.cfg.Grid); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached/window", func(b *testing.B) {
		sc := NewScratch()
		k.WarmScratch(sc, window[0].NumAntennas(), len(window))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.windowWeights(window, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWindowMeanRSSMatchesMeanOfLogs pins the one window mean RSS
// definition (10·log₁₀ of the power product, with decade rescue) to the
// per-packet mean of 10·log₁₀|H|² within 1e-9 dB, over powers spanning
// 10^±140 (so running products must be rescued in both directions) and a
// subcarrier with one zero-power packet, which must read −Inf.
func TestWindowMeanRSSMatchesMeanOfLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const nAnt, nSub, m = 2, 30, 40
	for trial := 0; trial < 20; trial++ {
		window := make([]*csi.Frame, m)
		for p := range window {
			f := &csi.Frame{CSI: make([][]complex128, nAnt)}
			for ant := range f.CSI {
				f.CSI[ant] = make([]complex128, nSub)
				for k := range f.CSI[ant] {
					amp := math.Pow(10, 70*(2*rng.Float64()-1)) // power 10^±140
					if k < 10 {
						amp = rng.ExpFloat64() // ordinary levels
					}
					f.CSI[ant][k] = complex(amp*rng.NormFloat64(), amp*rng.NormFloat64())
				}
			}
			window[p] = f
		}
		window[rng.Intn(m)].CSI[1][7] = 0
		dst := make([]float64, nSub)
		exps := make([]float64, nSub)
		for ant := 0; ant < nAnt; ant++ {
			want := make([]float64, nSub)
			for _, f := range window {
				for k, v := range SubcarrierRSSdB(f.CSI[ant]) {
					want[k] += v / m
				}
			}
			windowMeanRSSdBInto(dst, exps, window, ant)
			for k := range want {
				if math.IsInf(want[k], -1) {
					if !math.IsInf(dst[k], -1) {
						t.Fatalf("trial %d antenna %d subcarrier %d: zero-power subcarrier reads %v, want -Inf", trial, ant, k, dst[k])
					}
					continue
				}
				if d := math.Abs(dst[k] - want[k]); d > 1e-9 {
					t.Fatalf("trial %d antenna %d subcarrier %d: %v dB, mean of logs %v (|Δ| = %g)", trial, ant, k, dst[k], want[k], d)
				}
			}
		}
	}
}

// TestMeasureWindowCopiesScoredRSS pins the reuse of the window mean RSS
// rows Score leaves in the scratch: a refresh measuring the window just
// scored copies them instead of recomputing, whether the caller hands over
// raw frames or frames it sanitized itself (the kernel no longer sanitizes,
// so both are caller-owned). The rows are overwritten with a marker after
// scoring, so which path ran shows in the measurement.
func TestMeasureWindowCopiesScoredRSS(t *testing.T) {
	s, err := scenario.LinkCase(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sanitized := range []bool{true, false} {
		t.Run(fmt.Sprintf("sanitize=%v", sanitized), func(t *testing.T) {
			x, err := s.NewExtractor(1)
			if err != nil {
				t.Fatal(err)
			}
			cal, window := x.CaptureN(60, nil), x.CaptureN(25, nil)
			if sanitized {
				if cal, err = sanitize.Frames(cal, s.Grid.Indices); err != nil {
					t.Fatal(err)
				}
				if window, err = sanitize.Frames(window, s.Grid.Indices); err != nil {
					t.Fatal(err)
				}
			}
			cfg := DefaultConfig(s.Grid, SchemeSubcarrier, s.Env.RX.Offsets())
			profile, err := Calibrate(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			k, err := NewKernel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := NewScratch()
			if _, err := k.Score(profile, window, sc); err != nil {
				t.Fatal(err)
			}
			markScoredRSS(sc)
			var ws WindowStats
			if err := k.MeasureWindowInto(&ws, window, sc); err != nil {
				t.Fatal(err)
			}
			if ws.MeanRSSdB[0][0] != rssMarker {
				t.Fatal("the refresh recomputed the mean RSS rows Score left")
			}
		})
	}
}
