package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/scenario"
)

// recordDecisions wires an OnDecision callback that captures every link's
// decision stream in arrival order (per link, arrival order == stream order:
// shards score each link's windows sequentially).
func recordDecisions() (map[string][]core.Decision, func(string, core.Decision)) {
	var mu sync.Mutex
	byLink := make(map[string][]core.Decision)
	return byLink, func(id string, d core.Decision) {
		mu.Lock()
		byLink[id] = append(byLink[id], d)
		mu.Unlock()
	}
}

// driftFleet builds one engine whose three links run distinct drift presets
// from fixed seeds, so every source stream is fully deterministic.
func driftFleet(t *testing.T, workers int, seed int64, rec func(string, core.Decision)) *Engine {
	t.Helper()
	e := New(Config{
		Workers:    workers,
		WindowSize: 25,
		Adaptation: &adapt.Policy{},
		OnDecision: rec,
	})
	presets := []struct {
		name   string
		preset scenario.DriftPreset
	}{
		{"gain", scenario.GainWalk(12)},
		{"cfo", scenario.CFOWalk(60, 0.05)},
		{"furniture", scenario.FurnitureMove(600)},
	}
	for i, p := range presets {
		s, err := scenario.LinkCase(1+i, seed)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := s.NewDriftStream(p.preset, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(p.name, cfg, stream); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEngineShardedMatchesSequential proves the tentpole determinism claim:
// a fleet scored across many shards produces bit-identical per-link decision
// streams to the same fleet on a single shard (the sequential reference),
// adaptation state and all — across drift presets and seeds.
func TestEngineShardedMatchesSequential(t *testing.T) {
	const windows = 8
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runs := make([]map[string][]core.Decision, 0, 2)
			for _, workers := range []int{1, 3} {
				byLink, rec := recordDecisions()
				e := driftFleet(t, workers, seed, rec)
				ctx := context.Background()
				if err := e.Calibrate(ctx, 150); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(ctx, windows); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, byLink)
			}
			seqRun, shardRun := runs[0], runs[1]
			if len(seqRun) != 3 || len(shardRun) != 3 {
				t.Fatalf("decision maps cover %d/%d links, want 3", len(seqRun), len(shardRun))
			}
			for id, seq := range seqRun {
				sh := shardRun[id]
				if len(seq) != windows || len(sh) != windows {
					t.Fatalf("link %s: %d sequential vs %d sharded decisions, want %d", id, len(seq), len(sh), windows)
				}
				for w := range seq {
					if seq[w] != sh[w] { // exact struct equality: bit-identical scores
						t.Errorf("link %s window %d: sequential %+v != sharded %+v", id, w, seq[w], sh[w])
					}
				}
			}
		})
	}
}

// TestEngineMatchesDetectorReference checks the engine pipeline end to end
// against a hand-rolled sequential core.Detector loop on the identical
// recorded stream: same calibration split, same windows, bit-identical
// scores. This pins the engine's frame accounting (n profile + n holdout,
// then WindowSize-sized windows in stream order) independently of the
// engine's own code paths.
func TestEngineMatchesDetectorReference(t *testing.T) {
	const (
		winSize = 25
		calN    = 50
		windows = 4
	)
	s, err := scenario.LinkCase(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	frames := x.CaptureN(2*calN+windows*winSize, nil)

	// Reference: the documented calibration split, scored window by window.
	profile, err := core.Calibrate(cfg, frames[:calN])
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	null, err := det.SelfScores(frames[calN:2*calN], winSize, winSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.CalibrateThreshold(null, 0.95, 1.3); err != nil {
		t.Fatal(err)
	}
	want := make([]core.Decision, 0, windows)
	sc := core.NewScratch()
	for w := 0; w < windows; w++ {
		lo := 2*calN + w*winSize
		dec, err := det.DetectScratch(frames[lo:lo+winSize], sc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dec)
	}

	byLink, rec := recordDecisions()
	e := New(Config{Workers: 2, WindowSize: winSize, OnDecision: rec})
	if err := e.AddLink("ref", cfg, NewReplaySource(frames, false)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, calN); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, windows); err != nil {
		t.Fatal(err)
	}
	got := byLink["ref"]
	if len(got) != windows {
		t.Fatalf("engine scored %d windows, want %d", len(got), windows)
	}
	for w := range want {
		if got[w] != want[w] {
			t.Errorf("window %d: engine %+v != reference %+v", w, got[w], want[w])
		}
	}
}

// TestEngineConcurrentReadersDuringRun runs an adaptive sharded fleet while
// goroutines hammer every read API — Verdict/VerdictInto, Metrics/
// MetricsInto, Links/LinksInto, adapter Health via metrics — checking
// snapshot invariants as they go. Under -race (as CI runs it) this validates
// that the lock-free published state never tears.
func TestEngineConcurrentReadersDuringRun(t *testing.T) {
	byLink, rec := recordDecisions()
	_ = byLink
	e := driftFleet(t, 2, 5, rec) // 2 shards, 3 links
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.Calibrate(ctx, 150); err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx, 0) }()

	var stop atomic.Bool
	var readers sync.WaitGroup
	readerErr := make(chan string, 8)
	reportErr := func(format string, args ...any) {
		select {
		case readerErr <- fmt.Sprintf(format, args...):
		default:
		}
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var v SiteVerdict
			var m Metrics
			var ids []string
			lastWindows := make(map[string]uint64)
			for !stop.Load() {
				if err := e.VerdictInto(&v); err == nil {
					if v.Total < 1 || v.Total > 3 || v.Positive > v.Total {
						reportErr("torn verdict: %+v", v)
						return
					}
					for _, d := range v.Links {
						if math.IsNaN(d.Score) {
							reportErr("NaN score in verdict for %s", d.LinkID)
							return
						}
					}
				}
				e.MetricsInto(&m)
				if m.Links != 3 || len(m.PerLink) != 3 {
					reportErr("torn metrics: %d links, %d entries", m.Links, len(m.PerLink))
					return
				}
				for _, lm := range m.PerLink {
					if lm.WindowsScored < lastWindows[lm.ID] {
						reportErr("link %s windows went backwards: %d after %d",
							lm.ID, lm.WindowsScored, lastWindows[lm.ID])
						return
					}
					lastWindows[lm.ID] = lm.WindowsScored
					if lm.WindowsScored > 0 && (math.IsNaN(lm.MeanScore) || math.IsInf(lm.MeanScore, 0)) {
						reportErr("link %s torn mean score %v", lm.ID, lm.MeanScore)
						return
					}
				}
				ids = e.LinksInto(ids)
				if len(ids) != 3 {
					reportErr("LinksInto returned %d ids", len(ids))
					return
				}
				_, _ = e.Verdict()
				_ = e.Metrics()
			}
		}()
	}

	// Let scoring and reading overlap for a while, then wind down.
	deadline := time.After(2 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case <-deadline:
			break wait
		case <-tick.C:
			if e.Metrics().WindowsScored >= 30 {
				break wait
			}
		}
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	stop.Store(true)
	readers.Wait()
	select {
	case msg := <-readerErr:
		t.Fatal(msg)
	default:
	}
	if scored := e.Metrics().WindowsScored; scored == 0 {
		t.Fatal("no windows scored while readers ran")
	}
}
