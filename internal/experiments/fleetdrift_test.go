package experiments

import "testing"

// TestFleetDriftDisambiguation is the fleet layer's acceptance experiment:
// under a correlated ambient event (gain walk + AGC re-lock step applied to
// every link of a 5-link site) over a 10× calibration-length empty run, the
// coordinator must attribute the shift to the environment and recover
// automatically — quarantines cleared, baselines relocked, staggered
// recalibration dispatched — holding the site false-alarm rate at ≤5%,
// while per-link-only adaptation writes off at least half the fleet as
// needing recalibration on the very same stream. A person stepping onto one
// link afterwards must still be detected and must NOT trigger any fleet
// recalibration (localized perturbation ≠ ambient drift).
func TestFleetDriftDisambiguation(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		res, err := RunFleetDrift(FleetDriftConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d:\n%s", seed, res.Render())

		fl := res.Fleet
		if fl.EmptyTicks == 0 {
			t.Fatalf("seed %d: fleet arm fused no verdicts", seed)
		}
		if fl.FAR > 0.05 {
			t.Errorf("seed %d: fleet site FAR %.1f%% > 5%%", seed, 100*fl.FAR)
		}
		if fl.Quarantined != 0 {
			t.Errorf("seed %d: fleet arm ends with %d quarantined links; coordinator should have cleared them", seed, fl.Quarantined)
		}
		if fl.Relocks == 0 {
			t.Errorf("seed %d: fleet arm never relocked a baseline", seed)
		}
		if fl.RecalsDispatched == 0 {
			t.Errorf("seed %d: fleet arm never dispatched a recalibration", seed)
		}

		// Same stream, per-link adaptation only: the correlated step reads
		// as a local change on every link, so at least half the fleet ends
		// up written off.
		if min := (fleetLinks + 1) / 2; res.PerLink.Quarantined < min {
			t.Errorf("seed %d: per-link arm quarantined %d links, want ≥%d", seed, res.PerLink.Quarantined, min)
		}

		// The person on one link is a localized perturbation: detected, and
		// never answered with a fleet recalibration.
		if fl.PersonTicks == 0 || fl.PersonAlarms < fl.PersonTicks/2 {
			t.Errorf("seed %d: person detected in only %d/%d fused ticks", seed, fl.PersonAlarms, fl.PersonTicks)
		}
		if fl.RecalsDuringPerson != 0 {
			t.Errorf("seed %d: %d recalibrations dispatched during the person visit", seed, fl.RecalsDuringPerson)
		}

		// The comparison must actually show the failure modes it claims:
		// frozen profiles false-alarm through the event.
		if res.Frozen.FAR < 0.3 {
			t.Errorf("seed %d: frozen arm FAR %.1f%% suspiciously low — did the ambient preset apply?", seed, 100*res.Frozen.FAR)
		}
	}
}
