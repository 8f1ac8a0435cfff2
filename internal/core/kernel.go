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
	// plan is the precomputed steering table for SchemeSubcarrierPath (nil
	// otherwise) — built once here, shared read-only by every worker that
	// scores through this kernel, never rebuilt per window.
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

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Score computes the scheme's distance statistic for a window of M frames
// against the given profile (§IV-C monitoring stage). A nil scratch
// allocates a transient one.
func (k *Kernel) Score(profile *Profile, window []*csi.Frame, sc *Scratch) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("empty monitoring window: %w", ErrBadInput)
	}
	if profile == nil || len(profile.MeanAmp) == 0 {
		return 0, fmt.Errorf("score without a profile: %w", ErrBadInput)
	}
	if sc == nil {
		sc = NewScratch()
	}
	prep, err := k.prepareScratch(window, sc)
	if err != nil {
		return 0, fmt.Errorf("score: %w", err)
	}
	if prep[0].NumAntennas() != len(profile.MeanAmp) || prep[0].NumSubcarriers() != len(profile.MeanAmp[0]) {
		return 0, fmt.Errorf("window shape %dx%d differs from profile %dx%d: %w",
			prep[0].NumAntennas(), prep[0].NumSubcarriers(),
			len(profile.MeanAmp), len(profile.MeanAmp[0]), ErrBadInput)
	}
	switch k.cfg.Scheme {
	case SchemeBaseline:
		return k.scoreBaseline(profile, prep, sc)
	case SchemeSubcarrier:
		return k.scoreSubcarrier(profile, prep, sc)
	case SchemeSubcarrierPath:
		return k.scoreSubcarrierPath(profile, prep, sc)
	default:
		return 0, fmt.Errorf("unknown scheme: %w", ErrBadInput)
	}
}

// WindowStats are the per-window profile statistics a monitoring window
// contributes: the same mean-amplitude and mean-RSS summaries a calibration
// profile holds, measured over one sanitized window. The adaptation layer
// folds them into a LinkProfile via EWMA updates.
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
// over a window of prepared frames into dst (len = subcarriers) — the one
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
// already-prepared frames into ws — the single definition of the profile
// fingerprint, shared by Calibrate (building the static profile) and
// MeasureWindowInto (measuring a refresh window). rss, when non-nil, holds
// the windowMeanRSSdBInto rows of exactly these frames (the ones Score just
// computed) and is copied rather than recomputed; work is a row of nSub
// floats.
func meanStatsInto(ws *WindowStats, prep []*csi.Frame, rss [][]float64, work []float64) {
	nAnt := prep[0].NumAntennas()
	nSub := prep[0].NumSubcarriers()
	ws.shaped(nAnt, nSub)
	scale := 1 / float64(len(prep))
	for ant := 0; ant < nAnt; ant++ {
		amp := ws.MeanAmp[ant]
		for _, f := range prep {
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
			windowMeanRSSdBInto(ws.MeanRSSdB[ant], work, prep, ant)
		}
	}
}

// MeasureWindowInto computes a monitoring window's profile statistics into
// ws, reusing ws's buffers across calls — the measurement half of a
// silent-window profile refresh. If sc just scored exactly this window under
// k (same kernel, same source frames), the frames Score prepared are
// measured; otherwise the window is prepared into sc first, with
// bit-identical results. When those frames are scratch-owned (the kernel
// sanitizes) and Score already computed their mean RSS rows, the rows are
// copied instead of recomputed; frames the caller owns are always measured
// afresh. The reuse record is one-shot: any measurement consumes it, so
// frames recycled into the same slab cannot pass for the window they
// replaced. The caller must not modify the window's frames between scoring
// and measuring.
func (k *Kernel) MeasureWindowInto(ws *WindowStats, window []*csi.Frame, sc *Scratch) error {
	if len(window) == 0 {
		return fmt.Errorf("empty window: %w", ErrBadInput)
	}
	if ws == nil {
		return fmt.Errorf("nil window stats: %w", ErrBadInput)
	}
	if sc == nil {
		sc = NewScratch()
	}
	prep, rss, err := k.takePrepared(window, sc)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	meanStatsInto(ws, prep, rss, sc.medRow(prep[0].NumSubcarriers()))
	return nil
}

// prepareScratch sanitizes window into scratch-owned frames, valid only
// until the scratch's next use — the scoring hot path, where nothing
// outlives a call — and records (k, window) as what the scratch now holds.
// A failed preparation leaves no record.
func (k *Kernel) prepareScratch(window []*csi.Frame, sc *Scratch) ([]*csi.Frame, error) {
	sc.prepK, sc.prepRSS = nil, false
	prep := window
	if k.cfg.Sanitize {
		var err error
		if prep, err = sc.san.Frames(window, k.cfg.Grid.Indices); err != nil {
			return nil, err
		}
	}
	sc.prepK, sc.prep = k, prep
	sc.prepFrom = append(sc.prepFrom[:0], window...)
	return prep, nil
}

// takePrepared returns window's prepared frames — the ones sc holds if its
// record says it just prepared exactly this window under k, else freshly
// prepared ones — and consumes the record either way. On a hit over
// scratch-owned frames it also returns the mean RSS rows Score left for
// them, if any; otherwise rss is nil. Frames the caller owns (no
// sanitization) may have been edited since scoring, and are never paired
// with rows computed before the edit.
func (k *Kernel) takePrepared(window []*csi.Frame, sc *Scratch) (prep []*csi.Frame, rss [][]float64, err error) {
	hit := sc.prepK == k && len(sc.prepFrom) == len(window)
	for i := 0; hit && i < len(window); i++ {
		hit = sc.prepFrom[i] == window[i]
	}
	prep = sc.prep
	switch {
	case !hit:
		if prep, err = k.prepareScratch(window, sc); err != nil {
			return nil, nil, err
		}
	case sc.prepRSS && k.cfg.Sanitize:
		rss = sc.rss
	}
	clear(sc.prepFrom)
	sc.prepK, sc.prep, sc.prepFrom, sc.prepRSS = nil, nil, sc.prepFrom[:0], false
	return prep, rss, nil
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
// scratch beside its prepared-frames record, so a refresh measuring the same
// window copies them instead of recomputing (see MeasureWindowInto).
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
	sc.prepRSS = true
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
// partials (the frames themselves are never touched per window), and both
// Bartlett spectra run over the kernel's cached steering table. Every
// scratch buffer is fully rewritten per window, so a link migrating between
// shards reproduces bit-identical spectra on its new holder's scratch.
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
	if err := k.plan.BartlettInto(&sc.monSpec, &sc.monCov); err != nil {
		return 0, fmt.Errorf("monitor spectrum: %w", err)
	}
	parts := profile.Partials
	if parts == nil {
		// A profile assembled outside Calibrate carries no cached partials;
		// derive them transiently (one allocation, not steady state).
		if parts, err = music.NewPartials(profile.Frames); err != nil {
			return 0, fmt.Errorf("calibration covariance: %w", err)
		}
	}
	if err := parts.CovarianceInto(&sc.calCov, w); err != nil {
		return 0, fmt.Errorf("calibration covariance: %w", err)
	}
	if err := k.plan.BartlettInto(&sc.calSpec, &sc.calCov); err != nil {
		return 0, fmt.Errorf("calibration spectrum: %w", err)
	}
	return weightedSpectrumDistanceDB(&sc.monSpec, &sc.calSpec, profile.PathWeights)
}
