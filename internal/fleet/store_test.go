package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/engine"
	"mlink/internal/scenario"
)

// TestStorePersistenceRoundTrip is the acceptance check for durable
// adaptation: an engine is run with adaptation active (its baselines walk),
// killed, and rebuilt from a Store snapshot; the restored links must score
// the next windows within 1e-9 of the uninterrupted engine and require no
// recalibration.
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

	a, streams := build()
	if err := a.Calibrate(context.Background(), 150); err != nil {
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

	dir := t.TempDir()
	store := Store{Dir: dir}
	saved, err := store.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != nLinks {
		t.Fatalf("saved %v, want %d links", saved, nLinks)
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
	// calibrated, state loaded from the store.
	b, _ := build()
	restored, err := store.Load(b)
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

// TestStoreErrors pins the store's failure modes.
func TestStoreErrors(t *testing.T) {
	if _, err := (Store{}).Save(engine.New(engine.Config{})); err == nil {
		t.Fatal("dirless store saved")
	}
	if _, err := (Store{}).Load(engine.New(engine.Config{})); err == nil {
		t.Fatal("dirless store loaded")
	}

	// A corrupt record is an error, not a silent recalibration.
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
	store := Store{Dir: dir}
	// No records yet: Load restores nothing and is not an error.
	restored, err := store.Load(e)
	if err != nil || len(restored) != 0 {
		t.Fatalf("empty-store load = (%v, %v)", restored, err)
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(e); err != nil {
		t.Fatal(err)
	}
	if err := corruptFirstRecord(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(e); !errors.Is(err, engine.ErrBadRecord) {
		t.Fatalf("corrupt record load err = %v", err)
	}
}

// corruptFirstRecord flips the magic of the link's record file.
func corruptFirstRecord(dir string) error {
	path := Store{Dir: dir}.path("l")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[0] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}
