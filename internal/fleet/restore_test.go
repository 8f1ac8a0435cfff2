package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/engine"
	"mlink/internal/scenario"
)

// TestStorePersistenceRoundTrip is the acceptance check for durable
// adaptation: an engine runs journaled with adaptation active (its
// baselines walk) and stops, and a fresh engine is rebuilt from the
// journal directory's snapshot store through OpenJournal → Restore; the
// restored links must score the next windows within 1e-9 of the
// uninterrupted engine and require no recalibration.
func TestStorePersistenceRoundTrip(t *testing.T) {
	const (
		nLinks  = 2
		windows = 12
		future  = 8
	)
	preset := scenario.GainWalk(8) // keep the baselines actively walking
	pol := adapt.Policy{}

	build := func() (*engine.Engine, []*scenario.DriftStream) {
		e := engine.New(engine.Config{Workers: 1, WindowSize: 25, Adaptation: &pol})
		streams := make([]*scenario.DriftStream, 0, nLinks)
		for i := 0; i < nLinks; i++ {
			s, err := scenario.LinkCase(i+2, int64(40+i))
			if err != nil {
				t.Fatal(err)
			}
			stream, err := s.NewDriftStream(preset, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddLink(fmt.Sprintf("l%d", i), core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets()), stream); err != nil {
				t.Fatal(err)
			}
			streams = append(streams, stream)
		}
		return e, streams
	}

	dir := t.TempDir()
	a, streams := build()
	if err := a.Calibrate(context.Background(), 150); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, JournalConfig{SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background(), windows); err != nil {
		t.Fatal(err)
	}
	for _, lm := range a.Metrics().PerLink {
		if lm.Health.Refreshes == 0 {
			t.Fatalf("link %s never adapted — the round trip would prove nothing", lm.ID)
		}
	}

	// A clean shutdown: detach, then Close compacts the journal into
	// per-link snapshots plus the latest deltas.
	if err := a.SetJournal(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Capture the links' future windows once; both engines then score the
	// identical frames.
	futureWindows := make([][][]*csi.Frame, nLinks)
	for i, stream := range streams {
		for w := 0; w < future; w++ {
			win := make([]*csi.Frame, 0, 25)
			for p := 0; p < 25; p++ {
				f, err := stream.Next()
				if err != nil {
					t.Fatal(err)
				}
				win = append(win, f)
			}
			futureWindows[i] = append(futureWindows[i], win)
		}
	}

	// The "restarted daemon": fresh engine, links registered but never
	// calibrated, state restored from the journal directory.
	b, _ := build()
	j2, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	restored, err := j2.Restore(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != nLinks {
		t.Fatalf("restored %v, want %d links", restored, nLinks)
	}
	for _, lm := range b.Metrics().PerLink {
		if !lm.Calibrated || !lm.Adaptive {
			t.Fatalf("restored link %s not calibrated+adaptive: %+v", lm.ID, lm)
		}
		if lm.Health.NeedsRecalibration {
			t.Fatalf("restored link %s demands recalibration", lm.ID)
		}
	}
	// Nothing missing: CalibrateMissing must be a no-op (no source frames
	// consumed).
	if err := b.CalibrateMissing(context.Background(), 150); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nLinks; i++ {
		id := fmt.Sprintf("l%d", i)
		for w, win := range futureWindows[i] {
			decA, err := a.ScoreWindow(id, win)
			if err != nil {
				t.Fatal(err)
			}
			decB, err := b.ScoreWindow(id, win)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(decA.Score-decB.Score) > 1e-9 || decA.Present != decB.Present ||
				math.Abs(decA.Threshold-decB.Threshold) > 1e-9 {
				t.Fatalf("link %s window %d diverged:\n uninterrupted %+v\n restored      %+v", id, w, decA, decB)
			}
		}
	}

	// The adaptation state marched in lockstep too.
	ma, mb := a.Metrics(), b.Metrics()
	for i := range ma.PerLink {
		ha, hb := ma.PerLink[i].Health, mb.PerLink[i].Health
		if ha.Refreshes != hb.Refreshes || ha.ThresholdUpdates != hb.ThresholdUpdates || ha.State != hb.State {
			t.Fatalf("link %s adaptation diverged:\n uninterrupted %+v\n restored      %+v", ma.PerLink[i].ID, ha, hb)
		}
	}
}

// TestStoreErrors pins the snapshot store's failure modes: a journal needs
// a directory, a directory with no records restores nothing, and a corrupt
// snapshot fails Restore with engine.ErrBadRecord instead of being silently
// recalibrated over.
func TestStoreErrors(t *testing.T) {
	if _, err := OpenJournal("", JournalConfig{}); err == nil {
		t.Fatal("dirless journal opened")
	}

	dir := t.TempDir()
	e := engine.New(engine.Config{Workers: 1, WindowSize: 25})
	s, err := scenario.LinkCase(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddLink("l", core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets()),
		engine.SourceFunc(func() (*csi.Frame, error) { return x.Capture(nil), nil })); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// No records yet: Restore restores nothing and is not an error.
	restored, err := j.Restore(e)
	if err != nil || len(restored) != 0 {
		t.Fatalf("empty-directory restore = (%v, %v)", restored, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	record, err := e.ExportLink("l")
	if err != nil {
		t.Fatal(err)
	}
	record[0] ^= 0xFF // flip the record magic
	if err := os.WriteFile(snapshotPath(dir, "l"), record, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Restore(e); !errors.Is(err, engine.ErrBadRecord) {
		t.Fatalf("corrupt snapshot restore err = %v, want engine.ErrBadRecord", err)
	}
}
