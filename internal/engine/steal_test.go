package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// skewedFrames records one deterministic frame stream per link case, so the
// same bytes replay into every engine configuration under test.
func skewedFrames(t testing.TB, cases int, seed int64, n int) ([]*scenario.Scenario, [][]*csi.Frame) {
	t.Helper()
	scens := make([]*scenario.Scenario, cases)
	frames := make([][]*csi.Frame, cases)
	for i := range scens {
		s, err := scenario.LinkCase(1+i%5, seed)
		if err != nil {
			t.Fatal(err)
		}
		x, err := s.NewExtractor(seed + int64(i))
		if err != nil {
			t.Fatal(err)
		}
		scens[i] = s
		frames[i] = x.CaptureN(n, nil)
	}
	return scens, frames
}

// skewedFleet builds a fleet whose link 0 runs the MUSIC-weighted
// SchemeSubcarrierPath detector — an order of magnitude more DSP per window
// than its SchemeSubcarrier peers — over pre-recorded deterministic streams.
// The shape the work-stealing scheduler exists for: under static affinity
// the shard seeded with link 0 lags the fleet.
func skewedFleet(t testing.TB, workers int, static bool, scens []*scenario.Scenario, frames [][]*csi.Frame, loop bool, rec func(string, core.Decision)) *Engine {
	t.Helper()
	e := New(Config{
		Workers:        workers,
		WindowSize:     25,
		StaticAffinity: static,
		Adaptation:     &adapt.Policy{},
		OnDecision:     rec,
	})
	for i, s := range scens {
		scheme := core.SchemeSubcarrier
		if i == 0 {
			scheme = core.SchemeSubcarrierPath
		}
		cfg := core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, NewReplaySource(frames[i], loop)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEngineStealingMatchesSequential is the tentpole determinism gate for
// the work-stealing scheduler: whatever the worker count, and whether links
// migrate or sit pinned (StaticAffinity), every link's decision stream must
// be bit-identical to the single-shard sequential reference — stealing may
// move a link between shards but never reorder, skip, or rescore a window.
// Covered shapes: the three-preset drift fleet (adaptation state evolving
// per window) and a skewed fleet whose heavy link migrates under load.
func TestEngineStealingMatchesSequential(t *testing.T) {
	const windows = 6

	type variant struct {
		name    string
		workers int
		static  bool
	}
	variants := []variant{
		{"workers=1", 1, false},
		{"workers=2", 2, false},
		{"workers=3", 3, false},
		{"workers=4", 4, false},
		{"workers=4,static", 4, true},
	}

	t.Run("drift", func(t *testing.T) {
		const seed = 17
		var ref map[string][]core.Decision
		for _, v := range variants {
			byLink, rec := recordDecisions()
			e := driftFleet(t, v.workers, seed, rec)
			e.cfg.StaticAffinity = v.static
			ctx := context.Background()
			if err := e.Calibrate(ctx, 150); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(ctx, windows); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = byLink
				continue
			}
			compareDecisionStreams(t, v.name, ref, byLink, windows)
		}
	})

	t.Run("skewed", func(t *testing.T) {
		const links = 5
		scens, frames := skewedFrames(t, links, 23, 2*60+windows*25)
		var ref map[string][]core.Decision
		for _, v := range variants {
			byLink, rec := recordDecisions()
			e := skewedFleet(t, v.workers, v.static, scens, frames, false, rec)
			ctx := context.Background()
			if err := e.Calibrate(ctx, 60); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(ctx, windows); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = byLink
				continue
			}
			compareDecisionStreams(t, v.name, ref, byLink, windows)
		}
	})
}

func compareDecisionStreams(t *testing.T, name string, ref, got map[string][]core.Decision, windows int) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: decision maps cover %d links, reference has %d", name, len(got), len(ref))
	}
	for id, want := range ref {
		have := got[id]
		if len(want) != windows || len(have) != windows {
			t.Fatalf("%s: link %s scored %d windows vs reference %d, want %d", name, id, len(have), len(want), windows)
		}
		for w := range want {
			if want[w] != have[w] { // exact struct equality: bit-identical scores
				t.Errorf("%s: link %s window %d: %+v != reference %+v", name, id, w, have[w], want[w])
			}
		}
	}
}

// captureSink is a JournalSink whose writer records every append in arrival
// order. The engine serializes appends on its emission mutex, so the plain
// slice needs no extra locking; the test reads it only after Run returns.
type captureSink struct {
	mu      sync.Mutex
	flushes int
	recs    []capturedRec
}

type capturedRec struct {
	full bool
	link string
	blob []byte
}

func (s *captureSink) NewWriter() JournalWriter { return (*captureWriter)(s) }

type captureWriter captureSink

func (w *captureWriter) add(full bool, id string, rec []byte) {
	w.mu.Lock()
	w.recs = append(w.recs, capturedRec{full: full, link: id, blob: append([]byte(nil), rec...)})
	w.mu.Unlock()
}
func (w *captureWriter) AppendFull(id string, rec []byte)  { w.add(true, id, rec) }
func (w *captureWriter) AppendDelta(id string, rec []byte) { w.add(false, id, rec) }
func (w *captureWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
}

// holdHeavyUntilStolen makes migration in a two-shard run independent of
// how fast each link scores: shard 0 is held, with the heavy link it is
// driving, until shard 1 has retired its cheap residents and then stolen
// one of the heavy links still queued on shard 0 (or five seconds have
// passed, so a scheduler that never steals fails the test instead of
// hanging it). After that the hook is inert.
func holdHeavyUntilStolen(e *Engine, cheapIDs []string) {
	var released atomic.Bool
	e.beforeAdvance = func(shard int) {
		if shard != 0 || released.Load() {
			return
		}
		retired := func() bool {
			for _, id := range cheapIDs {
				if !e.byID[id].retired.Load() {
					return false
				}
			}
			return true
		}
		stolen := func() bool {
			for _, sh := range e.shards {
				if sh.steals.Load() > 0 {
					return true
				}
			}
			return false
		}
		deadline := time.Now().Add(5 * time.Second)
		for !(retired() && stolen()) && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		released.Store(true)
	}
}

// TestEngineMigrationUnderChurn exercises everything that must follow a
// link to its current holder while links actually migrate: three heavy
// MUSIC-weighted links seeded onto shard 0 and three cheap links onto
// shard 1, and shard 0 held (holdHeavyUntilStolen) until shard 1 has
// retired its residents and stolen a heavy one.
// While the run churns, blocking recalibrations land on random links (live,
// migrating, and already-retired ones — the revive path). Afterwards the
// test checks the scheduler did migrate (Metrics.Steals > 0), every link
// scored exactly its quota in order, the journal saw a base full record
// before any delta and one delta per scored window per link, and the
// per-link cost EWMAs separate the heavy links from the cheap ones. Run
// under -race (as CI does) this also proves the queues' atomic handoff
// publishes the link's unsynchronized owner state between shards.
func TestEngineMigrationUnderChurn(t *testing.T) {
	const (
		links   = 6
		windows = 30
	)
	scens, frames := skewedFrames(t, links, 41, 2*60+10)
	byLink, rec := recordDecisions()
	e := New(Config{
		Workers:    2,
		WindowSize: 25,
		Adaptation: &adapt.Policy{},
		OnDecision: rec,
	})
	// Links 0/2/4 run the heavy path-weighted scheme and seed round-robin
	// onto shard 0; links 1/3/5 are cheap and land on shard 1.
	for i, s := range scens {
		scheme := core.SchemeSubcarrier
		if i%2 == 0 {
			scheme = core.SchemeSubcarrierPath
		}
		cfg := core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, NewReplaySource(frames[i], true)); err != nil {
			t.Fatal(err)
		}
	}
	sink := &captureSink{}
	if err := e.SetJournal(sink); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		t.Fatal(err)
	}
	holdHeavyUntilStolen(e, []string{"l1", "l3", "l5"})

	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx, windows) }()

	// Wait for scoring to actually start: an inline Recalibrate fired before
	// Run's entry check would make Run bounce off ErrRunning.
	for e.Metrics().WindowsScored == 0 {
		select {
		case err := <-runDone:
			t.Fatalf("Run ended before scoring started: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Recalibration churn: blocking rebuilds posted at the links while they
	// retire and migrate. Near the end of the run a post can race Run's
	// exit; those fail with ErrNotRunning, which is the documented contract,
	// not a bug — everything else must succeed or report a pending clash.
	var recals, lateRejects int
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("l%d", i%links)
		switch err := e.Recalibrate(ctx, id, 40); {
		case err == nil:
			recals++
		case errors.Is(err, ErrRecalPending):
		case errors.Is(err, ErrNotRunning):
			lateRejects++
		default:
			t.Errorf("Recalibrate(%s): %v", id, err)
		}
	}

	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	if recals == 0 && lateRejects < 8 {
		t.Error("no recalibration completed and not all were late rejects")
	}

	m := e.Metrics()
	if m.Steals == 0 {
		t.Error("no link migrated: Steals == 0 (shard 1 retires three cheap links early and must steal)")
	}
	if len(m.Shards) != 2 {
		t.Fatalf("got %d shard metric entries, want 2", len(m.Shards))
	}
	var shardWindows uint64
	for i, sm := range m.Shards {
		shardWindows += sm.WindowsScored
		if sm.Utilization < 0 || sm.Utilization > 1 {
			t.Errorf("shard %d utilization %v outside [0,1]", i, sm.Utilization)
		}
	}
	if shardWindows != m.WindowsScored {
		t.Errorf("shard windows sum %d != fleet windows %d", shardWindows, m.WindowsScored)
	}

	// Cost EWMAs must be populated for every link. (The heavy-vs-cheap
	// ordering is NOT asserted here: with concurrent recalibrations and the
	// race detector on an oversubscribed host, a preemption mid-window can
	// inflate any link's measured cost. TestEngineStealingMatchesSequential's
	// skewed fleet covers the scheduler's response to real cost skew.)
	for _, lm := range m.PerLink {
		if lm.NsPerWindowEWMA <= 0 {
			t.Errorf("link %s: NsPerWindowEWMA = %v, want > 0", lm.ID, lm.NsPerWindowEWMA)
		}
	}

	for i := 0; i < links; i++ {
		id := fmt.Sprintf("l%d", i)
		if got := len(byLink[id]); got != windows {
			t.Errorf("link %s scored %d windows, want %d", id, got, windows)
		}
	}

	// Journal stream invariants, per link: a base full record arrives before
	// any delta, and — since every scored window of an adaptive link emits a
	// delta — each link logs at least its quota of deltas (recalibrations
	// add extra full records in between).
	fullSeen := make(map[string]bool)
	deltas := make(map[string]int)
	for _, r := range sink.recs {
		if r.full {
			fullSeen[r.link] = true
			continue
		}
		if !fullSeen[r.link] {
			t.Fatalf("link %s: delta before any full record", r.link)
		}
		deltas[r.link]++
	}
	for i := 0; i < links; i++ {
		id := fmt.Sprintf("l%d", i)
		if deltas[id] != windows {
			t.Errorf("link %s journaled %d deltas, want %d", id, deltas[id], windows)
		}
	}
	if sink.flushes == 0 {
		t.Error("journal writer never flushed")
	}
}
