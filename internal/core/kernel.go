package core

import (
	"fmt"
	"math"

	"mlink/internal/csi"
	"mlink/internal/music"
)

// Kernel is the immutable scoring core of a detector: a validated Config
// plus the scheme's distance statistics, with the calibration profile passed
// in per call rather than owned. Splitting the kernel from the profile is
// what makes online adaptation possible — the adaptation layer swaps
// profiles and thresholds while the kernel itself never changes, so scoring
// workers can keep a Kernel forever without synchronization.
type Kernel struct {
	cfg Config
	// plan is the steering table for SchemeSubcarrierPath (nil otherwise):
	// the process-wide music.Plan of the link's array geometry, the same
	// one Calibrate used, shared read-only by every worker and every kernel
	// on that geometry, never rebuilt per window.
	plan *music.Plan
}

// NewKernel validates the config and wraps it as a scoring kernel.
func NewKernel(cfg Config) (*Kernel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := &Kernel{cfg: cfg}
	if cfg.Scheme == SchemeSubcarrierPath {
		est, err := newEstimator(cfg)
		if err != nil {
			return nil, err
		}
		if k.plan, err = est.NewPlan(); err != nil {
			return nil, fmt.Errorf("steering plan: %w", err)
		}
	}
	return k, nil
}

// Score computes the scheme's distance statistic for a window of M frames
// against the given profile (§IV-C monitoring stage), through the caller's
// scratch (a nil one is rejected with ErrBadInput).
func (k *Kernel) Score(profile *Profile, window []*csi.Frame, sc *Scratch) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("empty monitoring window: %w", ErrBadInput)
	}
	if profile == nil || len(profile.MeanAmp) == 0 {
		return 0, fmt.Errorf("score without a profile: %w", ErrBadInput)
	}
	if sc == nil {
		return 0, fmt.Errorf("score without a scratch: %w", ErrBadInput)
	}
	sc.rssK = nil
	if err := checkShape(window, len(profile.MeanAmp), len(profile.MeanAmp[0])); err != nil {
		return 0, fmt.Errorf("window differs from profile: %w", err)
	}
	switch k.cfg.Scheme {
	case SchemeBaseline:
		return k.scoreBaseline(profile, window, sc)
	case SchemeSubcarrier:
		return k.scoreSubcarrier(profile, window, sc)
	case SchemeSubcarrierPath:
		return k.scoreSubcarrierPath(profile, window, sc)
	default:
		return 0, fmt.Errorf("unknown scheme: %w", ErrBadInput)
	}
}

// checkShape rejects a frame set unless every frame is nAnt×nSub, so no
// statistic indexes past a short row.
func checkShape(frames []*csi.Frame, nAnt, nSub int) error {
	for i, f := range frames {
		ok := f.NumAntennas() == nAnt && nAnt > 0 && nSub > 0
		for ant := 0; ok && ant < nAnt; ant++ {
			ok = len(f.CSI[ant]) == nSub
		}
		if !ok {
			return fmt.Errorf("frame %d shape %dx%d, want %dx%d: %w",
				i, f.NumAntennas(), f.NumSubcarriers(), nAnt, nSub, ErrBadInput)
		}
	}
	return nil
}

// WindowStats are the per-window profile statistics a monitoring window
// contributes: the same mean-amplitude and mean-RSS summaries a calibration
// profile holds, measured over one window. The adaptation layer folds them
// into a LinkProfile via EWMA updates.
type WindowStats struct {
	// MeanAmp is the window's mean linear CSI amplitude per
	// [antenna][subcarrier].
	MeanAmp [][]float64
	// MeanRSSdB is the window's mean per-subcarrier RSS in dB.
	MeanRSSdB [][]float64
}

// shaped grows the stats buffers to nAnt×nSub and zeroes them.
func (ws *WindowStats) shaped(nAnt, nSub int) {
	for _, rows := range []*[][]float64{&ws.MeanAmp, &ws.MeanRSSdB} {
		if len(*rows) != nAnt {
			*rows = make([][]float64, nAnt)
		}
		for i := range *rows {
			(*rows)[i] = growFloats(&(*rows)[i], nSub)
			for j := range (*rows)[i] {
				(*rows)[i][j] = 0
			}
		}
	}
}

// windowMeanRSSdBInto writes antenna ant's mean RSS per subcarrier in dB
// over a window of frames into dst (len = subcarriers) — the one
// definition of a window's mean RSS, shared by scoring (Δs against the
// profile), calibration and refresh measurement, so the adaptation layer
// never EWMA-mixes a fingerprint computed differently from the one scoring
// compares against. It is the mean of the per-packet 10·log₁₀|H|², computed
// as 10·log₁₀(Π_f p_f)/M: the same quantity with one logarithm per
// subcarrier instead of one per packet. Running power products are rescaled
// by 10^±300 before they can leave the double range, and the decade offsets
// (kept in exps, a work row of len(dst)) are folded back into the dB mean;
// this holds for per-packet powers within 10^±150, far beyond any
// receiver's range. A subcarrier whose product is not positive (a
// zero-power packet) reads −Inf, as 10·log₁₀ 0 does.
func windowMeanRSSdBInto(dst, exps []float64, window []*csi.Frame, ant int) {
	for kk := range dst {
		dst[kk], exps[kk] = 1, 0
	}
	for _, f := range window {
		row := f.CSI[ant][:len(dst)]
		for kk, h := range row {
			re, im := real(h), imag(h)
			v := dst[kk] * (re*re + im*im)
			switch {
			case v > 0 && v < 1e-150:
				v *= 1e300
				exps[kk] -= 300
			case v > 1e150:
				v *= 1e-300
				exps[kk] += 300
			}
			dst[kk] = v
		}
	}
	m := float64(len(window))
	for kk, prod := range dst {
		dst[kk] = math.Inf(-1)
		if prod > 0 {
			dst[kk] = (10*math.Log10(prod) + 10*exps[kk]) / m
		}
	}
}

// meanStatsInto computes the per-subcarrier mean amplitude and mean RSS of
// frames into ws — the single definition of the profile fingerprint, shared
// by Calibrate (building the static profile) and MeasureWindowInto
// (measuring a refresh window). rss, when non-nil, holds the
// windowMeanRSSdBInto rows of exactly these frames (the ones Score just
// computed) and is copied rather than recomputed; work is a row of nSub
// floats.
func meanStatsInto(ws *WindowStats, frames []*csi.Frame, rss [][]float64, work []float64) {
	nAnt := frames[0].NumAntennas()
	nSub := frames[0].NumSubcarriers()
	ws.shaped(nAnt, nSub)
	scale := 1 / float64(len(frames))
	for ant := 0; ant < nAnt; ant++ {
		amp := ws.MeanAmp[ant]
		for _, f := range frames {
			for kk, h := range f.CSI[ant][:nSub] {
				amp[kk] += math.Hypot(real(h), imag(h))
			}
		}
		for kk := range amp {
			amp[kk] *= scale
		}
		if rss != nil {
			copy(ws.MeanRSSdB[ant], rss[ant])
		} else {
			windowMeanRSSdBInto(ws.MeanRSSdB[ant], work, frames, ant)
		}
	}
}

// MeasureWindowInto computes a monitoring window's profile statistics into
// ws, reusing ws's buffers across calls — the measurement half of a
// silent-window profile refresh. If sc just scored exactly this window under
// k (same kernel, same source frames) and the scheme left the window's mean
// RSS rows there, the rows are copied instead of recomputed, bit-identical
// to a recompute; the amplitudes are always measured. The reuse record is
// one-shot: any measurement consumes it, and so does the next Score, so
// pooled frames refilled with a later window cannot pass for the window
// they held when scored. The caller must not modify the window's frames
// between scoring and measuring. A nil scratch is rejected with
// ErrBadInput.
func (k *Kernel) MeasureWindowInto(ws *WindowStats, window []*csi.Frame, sc *Scratch) error {
	if len(window) == 0 {
		return fmt.Errorf("empty window: %w", ErrBadInput)
	}
	if ws == nil || sc == nil {
		return fmt.Errorf("nil window stats or scratch: %w", ErrBadInput)
	}
	rss := k.takeScoredRSS(window, sc)
	if err := checkShape(window, window[0].NumAntennas(), k.cfg.Grid.Len()); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	meanStatsInto(ws, window, rss, sc.medRow(k.cfg.Grid.Len()))
	return nil
}

// takeScoredRSS returns the mean RSS rows Score left in sc if its record
// says they belong to exactly this window under k, else nil, and consumes
// the record either way.
func (k *Kernel) takeScoredRSS(window []*csi.Frame, sc *Scratch) [][]float64 {
	hit := sc.rssK == k && len(sc.rssFrom) == len(window)
	for i := 0; hit && i < len(window); i++ {
		hit = sc.rssFrom[i] == window[i]
	}
	clear(sc.rssFrom)
	sc.rssK, sc.rssFrom = nil, sc.rssFrom[:0]
	if !hit {
		return nil
	}
	return sc.rss
}

// scoreBaseline: normalized Euclidean distance of mean CSI amplitudes,
// averaged across antennas.
func (k *Kernel) scoreBaseline(profile *Profile, window []*csi.Frame, sc *Scratch) (float64, error) {
	nAnt := window[0].NumAntennas()
	nSub := window[0].NumSubcarriers()
	var total float64
	for ant := 0; ant < nAnt; ant++ {
		mean := sc.accumulator(nSub)
		for _, f := range window {
			for kk := 0; kk < nSub; kk++ {
				re, im := real(f.CSI[ant][kk]), imag(f.CSI[ant][kk])
				mean[kk] += math.Hypot(re, im)
			}
		}
		var dist, ref float64
		for kk := 0; kk < nSub; kk++ {
			mean[kk] /= float64(len(window))
			diff := mean[kk] - profile.MeanAmp[ant][kk]
			dist += diff * diff
			ref += profile.MeanAmp[ant][kk] * profile.MeanAmp[ant][kk]
		}
		if ref > 0 {
			total += math.Sqrt(dist / ref)
		}
	}
	return total / float64(nAnt), nil
}

// windowWeights derives the subcarrier weights from the monitoring window's
// multipath factors, per antenna, entirely into scratch-owned rows — the
// steady-state scoring loop allocates nothing here. The returned rows are
// only valid until the scratch's next use.
func (k *Kernel) windowWeights(window []*csi.Frame, sc *Scratch) ([][]float64, error) {
	nAnt := window[0].NumAntennas()
	nSub := window[0].NumSubcarriers()
	perAnt := sc.perAntenna(nAnt, nSub)
	for ant := 0; ant < nAnt; ant++ {
		mus := slabRows(&sc.mus, &sc.muSlab, len(window), nSub)
		for i, f := range window {
			if err := sc.MultipathFactorsInto(mus[i], f.CSI[ant], k.cfg.Grid); err != nil {
				return nil, err
			}
		}
		row := sc.weightRow(ant, nSub)
		if k.cfg.UsePerPacketWeights {
			// Eq. 12 ablation: average the per-packet weights.
			for i := range row {
				row[i] = 0
			}
			tmp := sc.medRow(nSub)
			for _, mu := range mus {
				if err := PerPacketWeightsInto(tmp, mu); err != nil {
					return nil, err
				}
				for i, v := range tmp {
					row[i] += v / float64(len(mus))
				}
			}
			perAnt[ant] = row
			continue
		}
		if err := ComputeSubcarrierWeightsInto(&sc.sw, mus, sc.medRow(nSub)); err != nil {
			return nil, err
		}
		perAnt[ant] = row[:copy(row, sc.sw.Weights)]
	}
	return perAnt, nil
}

// scoreSubcarrier: Euclidean norm of the Eq. 15 weighted RSS changes,
// averaged across antennas. The window's mean RSS rows are left in the
// scratch with a record of the kernel and frames they belong to, so a
// refresh measuring the same window copies them instead of recomputing (see
// MeasureWindowInto).
func (k *Kernel) scoreSubcarrier(profile *Profile, window []*csi.Frame, sc *Scratch) (float64, error) {
	weights, err := k.windowWeights(window, sc)
	if err != nil {
		return 0, err
	}
	nAnt := window[0].NumAntennas()
	nSub := window[0].NumSubcarriers()
	rss := slabRows(&sc.rss, &sc.rssSlab, nAnt, nSub)
	var total float64
	for ant := 0; ant < nAnt; ant++ {
		windowMeanRSSdBInto(rss[ant], sc.medRow(nSub), window, ant)
		var dist, wNorm float64
		for kk, meanRSS := range rss[ant] {
			delta := meanRSS - profile.MeanRSSdB[ant][kk]
			wd := weights[ant][kk] * delta
			dist += wd * wd
			wNorm += weights[ant][kk] * weights[ant][kk]
		}
		if wNorm > 0 {
			// Normalize by the weight norm: the score becomes a weighted
			// RMS Δs in dB, comparable across links whose multipath-factor
			// scales differ (the paper applies one threshold to all cases).
			total += math.Sqrt(dist / wNorm)
		}
	}
	sc.rssK = k
	sc.rssFrom = append(sc.rssFrom[:0], window...)
	return total / float64(nAnt), nil
}

// scoreSubcarrierPath: path-weighted distance between the subcarrier-
// weighted monitoring and calibration angular power spectra (§IV-C). The
// decision statistic runs on the Bartlett spectrum in dB — it carries the
// per-direction received power, so on-path attenuation and off-path echoes
// both register — while the Eq. 17 path weights, derived from the static
// MUSIC pseudospectrum at calibration, amplify the NLOS directions.
//
// The whole computation is allocation-free at steady state: the monitor
// covariance accumulates through the scratch's per-subcarrier partials, the
// calibration covariance is a weight-combine of the profile's precomputed
// partials (the frames themselves are never touched per window), and one
// fused pass over the kernel's cached steering table evaluates both
// Bartlett powers and the distance at the nonzero-weight angles only,
// writing no spectrum. Every scratch buffer is fully rewritten per window,
// so a link migrating between shards reproduces bit-identical scores on its
// new holder's scratch.
func (k *Kernel) scoreSubcarrierPath(profile *Profile, window []*csi.Frame, sc *Scratch) (float64, error) {
	perAnt, err := k.windowWeights(window, sc)
	if err != nil {
		return 0, err
	}
	w := growFloats(&sc.wavg, window[0].NumSubcarriers())
	if err := AverageWeightVectorsInto(w, perAnt); err != nil {
		return 0, err
	}
	if err := music.CovarianceInto(&sc.monCov, window, w, &sc.winPartials); err != nil {
		return 0, fmt.Errorf("monitor covariance: %w", err)
	}
	if profile.Partials == nil {
		return 0, fmt.Errorf("profile lacks calibration partials: %w", ErrBadInput)
	}
	if err := profile.Partials.CovarianceInto(&sc.calCov, w); err != nil {
		return 0, fmt.Errorf("calibration covariance: %w", err)
	}
	score, err := k.plan.BartlettDistanceDB(&sc.monCov, &sc.calCov, profile.PathWeights)
	if err != nil {
		return 0, fmt.Errorf("path distance: %w: %w", ErrBadInput, err)
	}
	return score, nil
}
