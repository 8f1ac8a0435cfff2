package main

import (
	"bytes"
	"fmt"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/csinet"
	"mlink/internal/dsp"
	"mlink/internal/engine"
	"mlink/internal/linalg"
	"mlink/internal/music"
	"mlink/internal/sanitize"
	"mlink/internal/scenario"
	"mlink/internal/serve"
)

// replayPasses is how many times each replayed stage sweeps the recorded
// windows; each stage reports the median pass.
const replayPasses = 9

// stageTimes are single-goroutine costs of each layer's public functions on
// the workload's recorded windows, in ns per window unless noted.
type stageTimes struct {
	sanitize    float64 // sanitize.Scratch.Frames
	weights     float64 // MultipathFactorsInto + ComputeSubcarrierWeightsInto (+ averaging)
	idft        float64 // one Transform.IDFTInto of a 30-subcarrier row, ns per call
	covariance  float64 // CovarianceInto + Partials.CovarianceInto
	bartlett    float64 // two Plan.BartlettInto
	score       float64 // Detector.ScoreScratch, the whole window
	observe     float64 // adapt.Adapter.Observe
	calibrateMs float64 // core.Calibrate of one link, ms
}

// distance is the score's self time: what the score costs beyond the
// stages it contains. It is a difference of separately timed calls, so
// where the distance itself is cheap (subcarrier scheme) timing noise can
// make it slightly negative; it is reported as measured.
func (s stageTimes) distance() float64 {
	return s.score - s.sanitize - s.weights - s.covariance - s.bartlett
}

// decodeAll decodes a whole recording into fresh frames.
func decodeAll(rec *recording) ([]*csi.Frame, error) {
	var mr csinet.MessageReader
	frames := make([]*csi.Frame, rec.len())
	for i := range frames {
		_, payload, err := mr.Read(bytes.NewReader(rec.msg(i)))
		if err != nil {
			return nil, err
		}
		if frames[i], err = csinet.DecodeFrame(payload); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// stageSamples collects one per-window cost per pass for each stage.
type stageSamples struct {
	sanitize, weights, covariance, bartlett, score, observe []float64
}

// replayStages times each stage on the recorded windows of one link per
// link case.
func replayStages(w workload, in []*linkInput) (stageTimes, error) {
	links := in[:min(len(in), scenario.NumLinkCases)]
	type prepared struct {
		li      *linkInput
		mon     []*csi.Frame
		profile *core.Profile
		det     *core.Detector
		ad      *adapt.Adapter
		plan    *music.Plan
	}
	var out stageTimes
	var calMs []float64
	preps := make([]prepared, 0, len(links))
	for _, li := range links {
		cal, err := decodeAll(&li.cal)
		if err != nil {
			return out, err
		}
		mon, err := decodeAll(&li.mon)
		if err != nil {
			return out, err
		}
		t0 := time.Now()
		profile, err := core.Calibrate(li.cfg, cal[:calPackets])
		if err != nil {
			return out, fmt.Errorf("replay calibrate: %w", err)
		}
		calMs = append(calMs, ms(time.Since(t0)))
		det, err := core.NewDetector(li.cfg, profile)
		if err != nil {
			return out, err
		}
		null, err := det.SelfScores(cal[calPackets:], windowSize, windowSize)
		if err != nil {
			return out, err
		}
		if _, err := det.CalibrateThreshold(null, 0.95, 1.3); err != nil {
			return out, err
		}
		p := prepared{li: li, mon: mon, profile: profile, det: det}
		if w.adaptive {
			if p.ad, err = adapt.NewAdapter(*w.adaptation(), det, null); err != nil {
				return out, err
			}
		}
		if li.cfg.Scheme == core.SchemeSubcarrierPath {
			est, err := music.NewEstimator(li.cfg.ArrayOffsets, 299792458.0/li.cfg.Grid.Center)
			if err != nil {
				return out, err
			}
			est.StepDeg = li.cfg.SpectrumStepDeg
			if p.plan, err = est.NewPlan(); err != nil {
				return out, err
			}
		}
		preps = append(preps, p)
	}
	out.calibrateMs = quantile(calMs, 0.5)

	var (
		san              sanitize.Scratch
		csc              = core.NewScratch()
		sc               = core.NewScratch()
		sws              []core.SubcarrierWeights
		rows             [][]float64
		mus              [][]float64
		med, wavg        []float64
		monCov, calCov   linalg.Matrix
		parts            music.Partials
		monSpec, calSpec music.Spectrum
		samples          stageSamples
	)
	for pass := 0; pass < replayPasses; pass++ {
		var sum stageTimes
		windows := 0
		for _, p := range preps {
			cfg := p.li.cfg
			nAnt, nSub := p.li.nAnt, p.li.nSub
			if len(sws) < nAnt {
				sws, rows = make([]core.SubcarrierWeights, nAnt), make([][]float64, nAnt)
			}
			if len(mus) != windowSize || len(med) != nSub {
				mus = make([][]float64, windowSize)
				for i := range mus {
					mus[i] = make([]float64, nSub)
				}
				med, wavg = make([]float64, nSub), make([]float64, nSub)
			}
			for wi := 0; wi+windowSize <= len(p.mon); wi += windowSize {
				win := p.mon[wi : wi+windowSize]
				t0 := time.Now()
				prep, err := san.Frames(win, cfg.Grid.Indices)
				if err != nil {
					return out, err
				}
				t1 := time.Now()
				for ant := 0; ant < nAnt; ant++ {
					for f := range prep {
						if err := csc.MultipathFactorsInto(mus[f], prep[f].CSI[ant], cfg.Grid); err != nil {
							return out, err
						}
					}
					if err := core.ComputeSubcarrierWeightsInto(&sws[ant], mus, med); err != nil {
						return out, err
					}
					rows[ant] = sws[ant].Weights
				}
				// Stages a scheme skips keep their brackets: a bypassed
				// layer reads the timer's own cost, tens of ns.
				if p.plan != nil {
					if err := core.AverageWeightVectorsInto(wavg, rows[:nAnt]); err != nil {
						return out, err
					}
				}
				t2 := time.Now()
				if p.plan != nil {
					if err := music.CovarianceInto(&monCov, prep, wavg, &parts); err != nil {
						return out, err
					}
					if err := p.profile.Partials.CovarianceInto(&calCov, wavg); err != nil {
						return out, err
					}
				}
				t3 := time.Now()
				if p.plan != nil {
					if err := p.plan.BartlettInto(&monSpec, &monCov); err != nil {
						return out, err
					}
					if err := p.plan.BartlettInto(&calSpec, &calCov); err != nil {
						return out, err
					}
				}
				t4 := time.Now()
				sum.sanitize += float64(t1.Sub(t0))
				sum.weights += float64(t2.Sub(t1))
				sum.covariance += float64(t3.Sub(t2))
				sum.bartlett += float64(t4.Sub(t3))
				t5 := time.Now()
				score, err := p.det.ScoreScratch(win, sc)
				if err != nil {
					return out, err
				}
				t6 := time.Now()
				sum.score += float64(t6.Sub(t5))
				if p.ad != nil {
					thr := p.det.Threshold()
					if _, err := p.ad.Observe(win, core.Decision{Present: score > thr, Score: score, Threshold: thr}); err != nil {
						return out, err
					}
				}
				sum.observe += float64(time.Since(t6))
				windows++
			}
		}
		per := float64(windows)
		samples.sanitize = append(samples.sanitize, sum.sanitize/per)
		samples.weights = append(samples.weights, sum.weights/per)
		samples.covariance = append(samples.covariance, sum.covariance/per)
		samples.bartlett = append(samples.bartlett, sum.bartlett/per)
		samples.score = append(samples.score, sum.score/per)
		samples.observe = append(samples.observe, sum.observe/per)
	}
	out.sanitize = quantile(samples.sanitize, 0.5)
	out.weights = quantile(samples.weights, 0.5)
	out.covariance = quantile(samples.covariance, 0.5)
	out.bartlett = quantile(samples.bartlett, 0.5)
	out.score = quantile(samples.score, 0.5)
	out.observe = quantile(samples.observe, 0.5)

	// The IDFT inside every multipath-factor computation, on a real row.
	row := preps[0].mon[0].CSI[0]
	dst := make([]complex128, len(row))
	xf := dsp.Plan(len(row))
	const calls = 20000
	idft := make([]float64, 0, replayPasses)
	for pass := 0; pass < replayPasses; pass++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			xf.IDFTInto(dst, row)
		}
		idft = append(idft, float64(time.Since(t0))/calls)
	}
	out.idft = quantile(idft, 0.5)
	return out, nil
}

// timerFloorNs is the cost of an empty timing bracket: what a layer the
// workload never calls reads.
func timerFloorNs() float64 {
	const brackets = 10000
	passes := make([]float64, 0, replayPasses)
	for pass := 0; pass < replayPasses; pass++ {
		var sum time.Duration
		for i := 0; i < brackets; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		passes = append(passes, float64(sum)/brackets)
	}
	return quantile(passes, 0.5)
}

// replayServe times the serving layer on the stopped engine's final state:
// one AppendVerdict, and one Hub.PublishRound at the workload's subscriber
// count.
func replayServe(e *engine.Engine, subs int) (encodeNs, publishNs float64, err error) {
	var v engine.SiteVerdict
	if err := e.VerdictInto(&v); err != nil {
		return 0, 0, fmt.Errorf("replay verdict: %w", err)
	}
	buf := serve.AppendVerdict(nil, &v)
	const encodes = 2000
	t0 := time.Now()
	for i := 0; i < encodes; i++ {
		buf = serve.AppendVerdict(buf[:0], &v)
	}
	encodeNs = float64(time.Since(t0)) / encodes

	hub := serve.NewHub(e, serve.HubOptions{MaxLag: -1})
	defer hub.Close()
	for i := 0; i < subs; i++ {
		if _, err := hub.Subscribe(); err != nil {
			return 0, 0, err
		}
	}
	const warm, publishes = 8, 300
	for i := 0; i < warm+publishes; i++ {
		if i == warm {
			t0 = time.Now()
		}
		if err := hub.PublishRound(); err != nil {
			return 0, 0, fmt.Errorf("replay publish: %w", err)
		}
	}
	publishNs = float64(time.Since(t0)) / publishes
	return encodeNs, publishNs, nil
}
