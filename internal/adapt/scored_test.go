package adapt

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// scoredArm is one adapter over its own detector and scratch. observe
// scores a window and lets the adapter fold it in through one of the
// observation paths under test.
type scoredArm struct {
	name    string
	det     *core.Detector
	ad      *Adapter
	sc      *core.Scratch
	observe func(a *scoredArm, window []*csi.Frame) (core.Decision, Health, error)
}

// TestObserveScoredMatchesObserve pins the scored observation path to the
// standalone one bit for bit: over every drift preset and three seeds, an
// adapter fed through ObserveScored with the scratch that just scored the
// window — the engine's path, whose refreshes copy the mean RSS rows
// scoring computed — must publish the same decisions, health, thresholds
// and journal deltas as one fed through Observe, which re-measures every
// refreshed window. Two further arms hand ObserveScored a scratch that did
// not just score this window under this detector (it last scored a decoy
// window, or this window under another kernel); they must fall back to
// measuring the window afresh and agree as well. Every arm receives
// a fleet relock request mid-run, so the relock path is covered too.
func TestObserveScoredMatchesObserve(t *testing.T) {
	presets := []scenario.DriftPreset{
		scenario.NoDrift(),
		scenario.GainWalk(12),
		scenario.CFOWalk(60, 0.05),
		scenario.FurnitureMove(600),
	}
	const (
		calPackets = 150
		winPackets = 25
		windows    = 48
		relockAt   = 30
	)
	for _, preset := range presets {
		for _, seed := range []int64{1, 5, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", preset.Kind, seed), func(t *testing.T) {
				s, err := scenario.Classroom(seed)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := s.NewDriftStream(preset, 1)
				if err != nil {
					t.Fatal(err)
				}
				pull := func(n int) []*csi.Frame {
					out := make([]*csi.Frame, n)
					for i := range out {
						if out[i], err = stream.Next(); err != nil {
							t.Fatal(err)
						}
					}
					return out
				}
				cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
				cal, holdout := pull(calPackets), pull(calPackets)
				newDetector := func() *core.Detector {
					profile, err := core.Calibrate(cfg, cal)
					if err != nil {
						t.Fatal(err)
					}
					det, err := core.NewDetector(cfg, profile)
					if err != nil {
						t.Fatal(err)
					}
					return det
				}
				null, err := newDetector().SelfScores(holdout, winPackets, winPackets)
				if err != nil {
					t.Fatal(err)
				}
				decoy := holdout[:winPackets]
				other := newDetector() // same config, another kernel

				standalone := func(a *scoredArm, w []*csi.Frame) (core.Decision, Health, error) {
					dec, err := a.det.DetectScratch(w, a.sc)
					if err != nil {
						return dec, Health{}, err
					}
					h, err := a.ad.Observe(w, dec)
					return dec, h, err
				}
				scored := func(a *scoredArm, w []*csi.Frame) (core.Decision, Health, error) {
					dec, err := a.det.DetectScratch(w, a.sc)
					if err != nil {
						return dec, Health{}, err
					}
					h, err := a.ad.ObserveScored(w, dec, a.sc)
					return dec, h, err
				}
				staleWindow := func(a *scoredArm, w []*csi.Frame) (core.Decision, Health, error) {
					dec, err := a.det.DetectScratch(w, a.sc)
					if err != nil {
						return dec, Health{}, err
					}
					if _, err := a.det.ScoreScratch(decoy, a.sc); err != nil {
						return dec, Health{}, err
					}
					h, err := a.ad.ObserveScored(w, dec, a.sc)
					return dec, h, err
				}
				otherKernel := func(a *scoredArm, w []*csi.Frame) (core.Decision, Health, error) {
					dec, err := a.det.DetectScratch(w, a.sc)
					if err != nil {
						return dec, Health{}, err
					}
					if _, err := other.ScoreScratch(w, a.sc); err != nil {
						return dec, Health{}, err
					}
					h, err := a.ad.ObserveScored(w, dec, a.sc)
					return dec, h, err
				}
				var arms []*scoredArm
				for _, a := range []struct {
					name    string
					observe func(a *scoredArm, window []*csi.Frame) (core.Decision, Health, error)
				}{
					{"standalone", standalone},
					{"scored", scored},
					{"stale-window", staleWindow},
					{"other-kernel", otherKernel},
				} {
					det := newDetector()
					if _, err := det.CalibrateThreshold(null, 0.95, 1.3); err != nil {
						t.Fatal(err)
					}
					ad, err := NewAdapter(Policy{}, det, null)
					if err != nil {
						t.Fatal(err)
					}
					arms = append(arms, &scoredArm{name: a.name, det: det, ad: ad, sc: core.NewScratch(), observe: a.observe})
				}

				var refreshes, relocks uint64
				for w := 0; w < windows; w++ {
					window := pull(winPackets)
					if w == relockAt {
						for _, a := range arms {
							a.ad.RequestRelock()
						}
					}
					ref := arms[0]
					refDec, refHealth, err := ref.observe(ref, window)
					if err != nil {
						t.Fatal(err)
					}
					refDelta := ref.ad.AppendDelta(nil)
					for _, a := range arms[1:] {
						dec, health, err := a.observe(a, window)
						if err != nil {
							t.Fatalf("window %d %s: %v", w, a.name, err)
						}
						if dec != refDec {
							t.Fatalf("window %d %s: decision %+v, standalone %+v", w, a.name, dec, refDec)
						}
						if health != refHealth || a.ad.Health() != ref.ad.Health() {
							t.Fatalf("window %d %s: health\n %+v\nstandalone\n %+v", w, a.name, health, refHealth)
						}
						if math.Float64bits(a.det.Threshold()) != math.Float64bits(ref.det.Threshold()) {
							t.Fatalf("window %d %s: threshold %v, standalone %v", w, a.name, a.det.Threshold(), ref.det.Threshold())
						}
						if !bytes.Equal(a.ad.AppendDelta(nil), refDelta) {
							t.Fatalf("window %d %s: journal delta differs from standalone", w, a.name)
						}
					}
					refreshes, relocks = refHealth.Refreshes, refHealth.Relocks
				}
				if refreshes == 0 {
					t.Fatal("no profile refreshes: the measurement path was never exercised")
				}
				if relocks != 1 {
					t.Fatalf("relocks = %d, want 1", relocks)
				}
			})
		}
	}
}
