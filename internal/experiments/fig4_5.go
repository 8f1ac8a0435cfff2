package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/dsp"
	"mlink/internal/music"
	"mlink/internal/sanitize"
	"mlink/internal/scenario"
)

// Fig4Location summarizes multipath-factor temporal stability at one fixed
// presence location over thousands of packets.
type Fig4Location struct {
	Name string
	// ArgmaxChanged reports whether the subcarrier with maximal μ differed
	// between two sample packets (the paper's Fig. 4a observation).
	ArgmaxChanged bool
	// PerSubcarrierP10/50/90 are μ percentiles per subcarrier.
	PerSubcarrierP10 []float64
	PerSubcarrierP50 []float64
	PerSubcarrierP90 []float64
	// MaxSpread is the largest (p90-p10) across subcarriers; StableCount is
	// the number of subcarriers whose spread stays below 25% of the median.
	MaxSpread   float64
	StableCount int
}

// Fig4Result is the temporal-stability study at two presence locations on a
// 3 m link (Fig. 4a–c).
type Fig4Result struct {
	Locations []Fig4Location
	Packets   int
}

// Fig4 captures `packets` packets at two fixed presence locations and
// summarizes the per-subcarrier μ distributions.
func Fig4(packets int, seed int64) (*Fig4Result, error) {
	s, err := scenario.ShortLinkNearWall(seed)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	rng := rand.New(rand.NewSource(seed + 4))
	const ant = 1
	mid := s.LinkMidpoint()
	locs := []struct {
		name string
		pos  body.Body
	}{
		{"location-1 (on LOS)", body.Default(mid)},
		{"location-2 (0.6 m off LOS)", body.Default(s.AngularArc(1, 1.4, 35, 35)[0])},
	}
	res := &Fig4Result{Packets: packets}
	for li, loc := range locs {
		x, err := s.NewExtractor(int64(10 + li))
		if err != nil {
			return nil, err
		}
		frames := captureJitteredWindow(x, packets, loc.pos, 0.01, nil, rng)
		nSub := frames[0].NumSubcarriers()
		mus := make([][]float64, nSub) // per subcarrier over time
		var first, later []float64
		for fi, f := range frames {
			mu, err := core.MultipathFactors(f.CSI[ant], s.Grid)
			if err != nil {
				return nil, err
			}
			if fi == 0 {
				first = mu
			}
			if fi == 199 {
				later = mu
			}
			for k, v := range mu {
				mus[k] = append(mus[k], v)
			}
		}
		out := Fig4Location{Name: loc.name}
		if first != nil && later != nil {
			a1, err := dsp.ArgMax(first)
			if err != nil {
				return nil, err
			}
			a2, err := dsp.ArgMax(later)
			if err != nil {
				return nil, err
			}
			out.ArgmaxChanged = a1 != a2
		}
		for k := 0; k < nSub; k++ {
			p10, err := dsp.Percentile(mus[k], 10)
			if err != nil {
				return nil, err
			}
			p50, err := dsp.Percentile(mus[k], 50)
			if err != nil {
				return nil, err
			}
			p90, err := dsp.Percentile(mus[k], 90)
			if err != nil {
				return nil, err
			}
			out.PerSubcarrierP10 = append(out.PerSubcarrierP10, p10)
			out.PerSubcarrierP50 = append(out.PerSubcarrierP50, p50)
			out.PerSubcarrierP90 = append(out.PerSubcarrierP90, p90)
			spread := p90 - p10
			if spread > out.MaxSpread {
				out.MaxSpread = spread
			}
			if p50 > 0 && spread < 0.25*p50 {
				out.StableCount++
			}
		}
		res.Locations = append(res.Locations, out)
	}
	return res, nil
}

// Render prints per-location μ stability tables.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — temporal stability of multipath factor (%d packets/location)\n", r.Packets)
	for _, loc := range r.Locations {
		fmt.Fprintf(&b, "%s: argmax-subcarrier changed between packets: %v, max p90-p10 spread %.3f, stable subcarriers %d/%d\n",
			loc.Name, loc.ArgmaxChanged, loc.MaxSpread, loc.StableCount, len(loc.PerSubcarrierP50))
		fmt.Fprintf(&b, "  %10s  %8s  %8s  %8s\n", "subcarrier", "p10", "median", "p90")
		for k := range loc.PerSubcarrierP50 {
			fmt.Fprintf(&b, "  %10d  %8.3f  %8.3f  %8.3f\n",
				k+1, loc.PerSubcarrierP10[k], loc.PerSubcarrierP50[k], loc.PerSubcarrierP90[k])
		}
	}
	return b.String()
}

// Fig5bResult is the static MUSIC pseudospectrum of the 3 m link near a
// concrete wall, with its peaks.
type Fig5bResult struct {
	Spectrum Series
	Peaks    []music.Peak
	// TrueLOSDeg and TrueWallDeg are the geometric arrival angles of the
	// LOS and the strongest wall reflection.
	TrueLOSDeg  float64
	TrueWallDeg float64
}

// Fig5b computes the angular pseudospectrum of the empty short link.
func Fig5b(packets int, seed int64) (*Fig5bResult, error) {
	s, err := scenario.ShortLinkNearWall(seed)
	if err != nil {
		return nil, fmt.Errorf("fig5b: %w", err)
	}
	x, err := s.NewExtractor(5)
	if err != nil {
		return nil, err
	}
	frames := captureWindow(x, packets, nil, nil)
	clean, err := sanitize.Frames(frames, s.Grid.Indices)
	if err != nil {
		return nil, err
	}
	cov, err := music.Covariance(clean, nil)
	if err != nil {
		return nil, err
	}
	est, err := music.NewEstimator(s.Env.RX.Offsets(), 299792458.0/s.Grid.Center)
	if err != nil {
		return nil, err
	}
	plan, err := est.NewPlan()
	if err != nil {
		return nil, err
	}
	spec := &music.Spectrum{}
	if err := plan.PseudospectrumInto(spec, cov, 2, nil); err != nil {
		return nil, err
	}
	norm := spec.Normalized()

	res := &Fig5bResult{
		Spectrum: Series{Name: "static pseudospectrum", X: norm.AnglesDeg, Y: norm.Power},
		Peaks:    norm.Peaks(3),
	}
	// Ground-truth angles from the ray tracer.
	angles, amps := s.Env.TrueAoAs(s.Grid.Center)
	if len(angles) > 0 {
		// Strongest ray = LOS; strongest non-LOS = wall path.
		li, err := dsp.ArgMax(amps)
		if err != nil {
			return nil, err
		}
		res.TrueLOSDeg = angles[li] * 180 / 3.141592653589793
		bestAmp := -1.0
		for i := range angles {
			if i == li {
				continue
			}
			if amps[i] > bestAmp {
				bestAmp = amps[i]
				res.TrueWallDeg = angles[i] * 180 / 3.141592653589793
			}
		}
	}
	return res, nil
}

// Render prints the pseudospectrum and its peaks.
func (r *Fig5bResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5b — MUSIC pseudospectrum, 3-antenna array, link near concrete wall\n")
	fmt.Fprintf(&b, "true LOS angle %.1f°, true wall-reflection angle %.1f°\n", r.TrueLOSDeg, r.TrueWallDeg)
	for _, p := range r.Peaks {
		fmt.Fprintf(&b, "peak at %.1f° (power %.3f)\n", p.AngleDeg, p.Power)
	}
	step := len(r.Spectrum.X) / 37
	if step < 1 {
		step = 1
	}
	fmt.Fprintf(&b, "  %8s  %10s\n", "angle(°)", "power")
	for i := 0; i < len(r.Spectrum.X); i += step {
		fmt.Fprintf(&b, "  %8.0f  %10.4f\n", r.Spectrum.X[i], r.Spectrum.Y[i])
	}
	return b.String()
}

// Fig5cResult maps presence angle to mean absolute subcarrier RSS change.
type Fig5cResult struct {
	PerAngle Series
	// PeakAngleDeg is the angle with the largest mean |ΔRSS| (expected near
	// the LOS direction, 0°).
	PeakAngleDeg float64
}

// Fig5c measures RSS change for presence locations on an arc around the
// receiver (16 locations, -90°…90°, radius 1 m).
func Fig5c(nLocations, packetsPerLocation int, seed int64) (*Fig5cResult, error) {
	s, err := scenario.ShortLinkNearWall(seed)
	if err != nil {
		return nil, fmt.Errorf("fig5c: %w", err)
	}
	x, err := s.NewExtractor(6)
	if err != nil {
		return nil, err
	}
	nAnt := 3
	cal := make([][]float64, nAnt)
	calFrames := captureWindow(x, 200, nil, nil)
	for ant := 0; ant < nAnt; ant++ {
		cal[ant] = meanRSSPerSubcarrier(calFrames, ant)
	}
	arc := s.AngularArc(nLocations, 1.0, -90, 90)
	res := &Fig5cResult{PerAngle: Series{Name: "mean |ΔRSS| by angle"}}
	bestVal := -1.0
	for i, pos := range arc {
		deg := -90 + 180*float64(i)/float64(nLocations-1)
		target := body.Default(pos)
		window := captureWindow(x, packetsPerLocation, &target, nil)
		var acc, count float64
		for ant := 0; ant < nAnt; ant++ {
			mon := meanRSSPerSubcarrier(window, ant)
			for k := range mon {
				d := mon[k] - cal[ant][k]
				if d < 0 {
					d = -d
				}
				acc += d
				count++
			}
		}
		mean := acc / count
		res.PerAngle.X = append(res.PerAngle.X, deg)
		res.PerAngle.Y = append(res.PerAngle.Y, mean)
		if mean > bestVal {
			bestVal = mean
			res.PeakAngleDeg = deg
		}
	}
	return res, nil
}

// Render prints the angle/ΔRSS table.
func (r *Fig5cResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5c — RSS change vs presence angle (1 m radius arc)\n")
	fmt.Fprintf(&b, "peak impact at %.0f°\n", r.PeakAngleDeg)
	renderSeries(&b, r.PerAngle, "angle(°)", "mean |ΔRSS| (dB)")
	return b.String()
}
