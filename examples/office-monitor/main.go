// Office-monitor: a three-link office site run end to end with fleet
// coordination. Every link shares one ambient event — a slow receiver gain
// walk plus a 6 dB AGC re-lock step mid-run — which per-link adaptation
// alone would misread as three separate intrusions and quarantine away. The
// fleet coordinator sees the correlated evidence, classifies it as
// ambient drift, relocks the baselines and schedules staggered online
// recalibrations; when a real person then walks onto one link, the site
// still alarms and the coordinator classifies the perturbation as
// localized — never as a reason to recalibrate. A journal persists the
// adapted baselines throughout, the way a daemon restart would resume them.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/engine"
	"mlink/internal/fleet"
	"mlink/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		calPackets = 300
		window     = 25
		seed       = 7
	)
	// One correlated event for the whole site: 2 dB/min thermal walk, and
	// the receiver re-locks its gain +6 dB at packet 1100 (monitoring
	// window 20 after the 600-packet calibration).
	preset := scenario.AmbientDrift(2, 6, 1100)

	var (
		coord *fleet.Coordinator
		last  fleet.State
	)
	pol := adapt.Policy{} // package defaults
	eng := engine.New(engine.Config{
		Workers:         1,
		WindowSize:      window,
		ThresholdMargin: 2.5,
		Fusion:          engine.KOfN{K: 1},
		Adaptation:      &pol,
		OnRound: func(v *engine.SiteVerdict) {
			rep := coord.Observe(v)
			mark := "     "
			if v.Present {
				mark = "ALARM"
			}
			fmt.Printf("round %3d  %s  site score %.2f (%d/%d links positive)\n",
				v.Round, mark, v.Score, v.Positive, v.Total)
			if rep.State != last {
				last = rep.State
				fmt.Printf("           fleet -> %s (drifting %d, jumped %d, quarantined %d; relocks %d, recals %d)\n",
					rep.State, rep.Drifting, rep.Jumped, rep.Quarantined, rep.Relocks, rep.RecalsDispatched)
			}
		},
	})
	coord = fleet.New(eng)

	streams := make([]*scenario.DriftStream, 0, 3)
	var personBody body.Body
	for i, caseN := range []int{2, 3, 4} {
		s, err := scenario.LinkCase(caseN, seed+int64(i))
		if err != nil {
			return err
		}
		stream, err := s.NewDriftStream(preset, 1)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("office-%d", i+1)
		if err := eng.AddLink(id, core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets()), stream); err != nil {
			return err
		}
		streams = append(streams, stream)
		if i == 1 {
			personBody = body.Default(s.LinkMidpoint())
		}
	}

	ctx := context.Background()
	fmt.Println("calibrating 3 office links (empty room)...")
	if err := eng.Calibrate(ctx, calPackets); err != nil {
		return err
	}
	// Journal the adapted baselines while monitoring, exactly as a daemon
	// does; a restart restores them and resumes without recalibrating.
	dir, err := os.MkdirTemp("", "office-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal, err := fleet.OpenJournal(dir, fleet.JournalConfig{})
	if err != nil {
		return err
	}
	defer journal.Close()
	if err := eng.SetJournal(journal); err != nil {
		return err
	}

	fmt.Println("\n-- empty office; the site-wide gain event lands at window 20 --")
	if err := eng.Run(ctx, 48); err != nil {
		return err
	}

	fmt.Println("\n-- a person walks onto link office-2 --")
	streams[1].SetBodies([]body.Body{personBody})
	if err := eng.Run(ctx, 6); err != nil {
		return err
	}

	fmt.Println("\n-- the person leaves --")
	streams[1].SetBodies(nil)
	if err := eng.Run(ctx, 6); err != nil {
		return err
	}

	rep := coord.Report()
	fmt.Printf("\nfleet summary: state %s, relocks %d, recals dispatched %d, quarantines cleared %d\n",
		rep.State, rep.Relocks, rep.RecalsDispatched, rep.QuarantinesCleared)
	for _, lm := range eng.Metrics().PerLink {
		h := lm.Health
		fmt.Printf("  %s health %-9s thr %.3f shift %.2f dB refreshes %d recal-needed %v\n",
			lm.ID, h.State, lm.Threshold, h.ProfileShiftDB, h.Refreshes, h.NeedsRecalibration)
	}

	// A clean shutdown: detach the journal and compact it into per-link
	// snapshots.
	if err := eng.SetJournal(nil); err != nil {
		return err
	}
	if err := journal.Close(); err != nil {
		return err
	}
	saved, err := filepath.Glob(filepath.Join(dir, "*.mlprofile"))
	if err != nil {
		return err
	}
	fmt.Printf("persisted %d adapted baselines (restart recipe: fleet.OpenJournal, Journal.Restore, then Engine.CalibrateMissing)\n", len(saved))
	return nil
}
