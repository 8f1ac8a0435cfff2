package mlink

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestJournalMigratesSnapshotDir opens a directory in the layout the
// retired snapshot-only persistence wrote — one <link>.mlprofile record per
// link and no journal.mlwal — through EnableJournal: every link restores
// bit-for-bit with no calibration, and a clean close leaves the snapshots
// as they were.
func TestJournalMigratesSnapshotDir(t *testing.T) {
	build := func() *Engine {
		eng := NewEngine(EngineConfig{Workers: 1, WindowSize: 25})
		if err := eng.EnableAdaptation(); err != nil {
			t.Fatal(err)
		}
		for i, id := range []string{"walk1", "walk2"} {
			sys, err := NewLinkCaseSystem(i+2, SchemeSubcarrier, 5+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddDriftLink(id, sys, GainWalkDrift(12)); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	engA := build()
	if err := engA.Calibrate(150); err != nil {
		t.Fatal(err)
	}
	if err := engA.Run(t.Context(), 10); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	records := map[string][]byte{}
	for _, id := range engA.Links() {
		rec, err := engA.eng.ExportLink(id)
		if err != nil {
			t.Fatal(err)
		}
		records[id] = rec
		if err := os.WriteFile(filepath.Join(dir, id+".mlprofile"), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	engB := build()
	restored, err := engB.EnableJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(records) {
		t.Fatalf("restored %v, want %d links", restored, len(records))
	}
	for id, want := range records {
		got, err := engB.eng.ExportLink(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("link %s did not restore bit-for-bit", id)
		}
	}
	if err := engB.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	for id, want := range records {
		got, err := os.ReadFile(filepath.Join(dir, id+".mlprofile"))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("snapshot %s changed by open and close (err %v)", id, err)
		}
	}
}

// TestJournalRestartSemantics is the end-to-end crash story at the public
// API: an adaptive drifting fleet journals while running, the process is
// killed without any shutdown handshake, and a fresh process pointed at the
// same directory resumes the walked baselines — adaptation history intact,
// no spurious presence, and no step-change classification from the restart
// itself (a resumed baseline must look like the same room, not moved
// furniture).
func TestJournalRestartSemantics(t *testing.T) {
	dir := t.TempDir()

	build := func(onDecision func(string, Decision)) *Engine {
		eng := NewEngine(EngineConfig{
			Workers:    2,
			WindowSize: 25,
			Fusion:     WeightedKOfN{K: 1},
			OnDecision: onDecision,
		})
		if err := eng.EnableAdaptation(); err != nil {
			t.Fatal(err)
		}
		for i, seed := range []int64{11, 5} {
			sys, err := NewLinkCaseSystem(i+2, SchemeSubcarrier, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddDriftLink([]string{"walk1", "walk2"}[i], sys, GainWalkDrift(12)); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}

	// First process: calibrate, journal, run until the baselines have
	// visibly walked, then "die" (no CloseJournal — the crash case).
	engA := build(nil)
	if err := engA.Calibrate(150); err != nil {
		t.Fatal(err)
	}
	restored, err := engA.EnableJournal(dir, JournalConfig{SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("fresh directory restored %v", restored)
	}
	if err := engA.EnableFleet(); err != nil {
		t.Fatal(err)
	}
	if err := engA.Run(t.Context(), 14); err != nil {
		t.Fatal(err)
	}
	healthA := map[string]LinkHealth{}
	for _, lm := range engA.Metrics().PerLink {
		healthA[lm.ID] = lm.Health
		if lm.Health.Refreshes == 0 {
			t.Fatalf("link %s never refreshed — the kill is not mid-drift", lm.ID)
		}
		if lm.Health.NeedsRecalibration {
			t.Fatalf("link %s unhealthy before the kill: %+v", lm.ID, lm.Health)
		}
	}
	// engA is abandoned here with its journal open: a killed process.

	// Second process: same links, same directory. Watch every decision for
	// resume artifacts — a presence verdict the empty room never caused, a
	// quarantine, or a fleet step-change classification.
	var engB *Engine
	var mu sync.Mutex
	var present, stepChange, quarantined int
	probe := func(linkID string, d Decision) {
		mu.Lock()
		defer mu.Unlock()
		if d.Present {
			present++
		}
		for _, lm := range engB.Metrics().PerLink {
			if lm.Health.NeedsRecalibration {
				quarantined++
			}
		}
		if fr, ok := engB.FleetReport(); ok && fr.State == FleetStepChange {
			stepChange++
		}
	}
	engB = build(probe)
	restored, err = engB.EnableJournal(dir, JournalConfig{SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %v, want both links", restored)
	}
	for _, lm := range engB.Metrics().PerLink {
		prev := healthA[lm.ID]
		if lm.Health.Refreshes != prev.Refreshes {
			t.Fatalf("link %s resumed with %d refreshes, the killed process had %d",
				lm.ID, lm.Health.Refreshes, prev.Refreshes)
		}
		if lm.Health.ThresholdUpdates != prev.ThresholdUpdates {
			t.Fatalf("link %s resumed with %d threshold updates, want %d",
				lm.ID, lm.Health.ThresholdUpdates, prev.ThresholdUpdates)
		}
		if lm.Health.State == HealthUnknown {
			t.Fatalf("link %s resumed without health state", lm.ID)
		}
	}
	if err := engB.EnableFleet(); err != nil {
		t.Fatal(err)
	}
	if err := engB.Run(t.Context(), 12); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if present != 0 {
		t.Errorf("%d spurious presence decisions after resume", present)
	}
	if quarantined != 0 {
		t.Errorf("%d post-resume decisions flagged recalibration", quarantined)
	}
	if stepChange != 0 {
		t.Errorf("fleet classified the resume as a step change %d times", stepChange)
	}
	for _, lm := range engB.Metrics().PerLink {
		if lm.Health.Refreshes < healthA[lm.ID].Refreshes {
			t.Errorf("link %s lost refresh history across the restart", lm.ID)
		}
	}
	if err := engB.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}
