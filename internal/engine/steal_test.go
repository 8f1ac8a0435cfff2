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
// than its SchemeSubcarrier peers — over pre-recorded deterministic streams,
// so the shard holding link 0 falls behind the others and links migrate.
func skewedFleet(t testing.TB, workers int, scens []*scenario.Scenario, frames [][]*csi.Frame, loop bool, rec func(string, core.Decision)) *Engine {
	t.Helper()
	e := New(Config{
		Workers:    workers,
		WindowSize: 25,
		Adaptation: &adapt.Policy{},
		OnDecision: rec,
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

// TestEngineStealingMatchesSequential is the determinism gate for the
// shared run queue: whatever the worker count, every link's decision stream
// must be bit-identical to the single-shard sequential reference — a link
// may move between shards at every window but is never reordered, skipped,
// or rescored. Covered shapes: the three-preset drift fleet (adaptation
// state evolving per window) and a skewed fleet whose heavy link migrates
// under load.
func TestEngineStealingMatchesSequential(t *testing.T) {
	const windows = 6

	type variant struct {
		name    string
		workers int
	}
	variants := []variant{
		{"workers=1", 1},
		{"workers=2", 2},
		{"workers=3", 3},
		{"workers=4", 4},
	}

	t.Run("drift", func(t *testing.T) {
		const seed = 17
		var ref map[string][]core.Decision
		for _, v := range variants {
			byLink, rec := recordDecisions()
			e := driftFleet(t, v.workers, seed, rec)
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
			e := skewedFleet(t, v.workers, scens, frames, false, rec)
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

// waitFor polls cond every 100µs until it holds or five seconds pass, and
// reports whether it held: the safety release of the scheduler holds below,
// so a scheduler that cannot reach the awaited state fails its test
// instead of hanging it.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return cond()
}

// holdForMigration makes a migration in a multi-shard run independent of
// how fast each link scores, and of how many CPUs run the shards. The
// other shards park at their first step until shard 0 has taken a link,
// and shard 0 is held inside that first step. The other shards then score
// until every link waiting in the run queue has a window, and stop at
// their next step until shard 0 has scored a window of a link another
// shard scored last: shard 0 sent its first link to the back of the queue,
// so the next link it takes is one of those, still short of its quota.
// After that the hook is inert.
func holdForMigration(e *Engine) {
	// 0: shard 0 has no link yet; 1: shard 0 held; 2: the others held; 3: done.
	var phase atomic.Int32
	// parked counts the shards waiting at their first step, each holding a
	// link that has no window yet.
	var parked atomic.Int32
	queuedScored := func() bool {
		unscored := 0
		for _, l := range e.links {
			if l.state.windows.Load() == 0 {
				unscored++
			}
		}
		return unscored <= 1+int(parked.Load()) // shard 0's link and the parked ones
	}
	e.beforeAdvance = func(shard int) {
		if shard == 0 {
			if phase.CompareAndSwap(0, 1) {
				waitFor(func() bool { return phase.Load() >= 2 })
			}
			return
		}
		if phase.Load() == 0 {
			parked.Add(1)
			waitFor(func() bool { return phase.Load() != 0 })
			parked.Add(-1)
		}
		if phase.Load() == 1 && queuedScored() {
			phase.CompareAndSwap(1, 2)
		}
		if phase.Load() == 2 {
			waitFor(func() bool { return e.shards[0].steals.Load() > 0 })
			phase.Store(3)
		}
	}
}

// TestEngineMigrationUnderChurn exercises everything that must follow a
// link to its current holder while links actually migrate: three heavy
// MUSIC-weighted links and three cheap ones on two shards, held
// (holdForMigration) so that shard 0 scores links shard 1 scored last.
// While the run churns, blocking recalibrations land on random links (live,
// migrating, and already-retired ones — the revival path). Afterwards the
// test checks the scheduler did migrate (Metrics.Steals > 0), every link
// scored exactly its quota in order, the journal saw a base full record
// before any delta and one delta per scored window per link, and the
// per-link cost EWMAs are populated. Run under -race (as CI does) this also
// proves the run queue's channel handoff publishes the link's
// unsynchronized owner state between shards.
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
	// Links 0/2/4 run the heavy path-weighted scheme; links 1/3/5 are cheap.
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
	holdForMigration(e)

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
		t.Error("no link migrated: Steals == 0 (shard 0 must score a link shard 1 scored last)")
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

// TestFreeShardRetiresEveryOtherLink pins the run queue's promise that a
// free shard always gets the next waiting link: with shard 0 held inside
// its first step, shard 1 alone must retire every other link of the fleet.
// A scheduler that keeps links on the shard they started on, or takes
// from a busy shard only what it has to spare, leaves links waiting behind
// the held shard, and the hold's safety release fails the test.
func TestFreeShardRetiresEveryOtherLink(t *testing.T) {
	const links, windows = 6, 5
	e := New(Config{Workers: 2, WindowSize: 25})
	roundFleet(t, e, links, 47, nil)
	retired := func() int {
		n := 0
		for _, l := range e.links {
			if l.retired.Load() {
				n++
			}
		}
		return n
	}
	// Shard 1 waits at its first step until shard 0 holds a link, so the
	// hold happens even when one CPU runs both shards.
	var held, shard1Started atomic.Bool
	var othersRetired atomic.Int64
	e.beforeAdvance = func(shard int) {
		switch {
		case shard == 1 && shard1Started.CompareAndSwap(false, true):
			waitFor(held.Load)
		case shard == 0 && held.CompareAndSwap(false, true):
			waitFor(func() bool { return retired() == links-1 })
			othersRetired.Store(int64(retired()))
		}
	}
	if err := e.Run(context.Background(), windows); err != nil {
		t.Fatal(err)
	}
	if !held.Load() {
		t.Fatal("shard 0 never took a link")
	}
	if n := othersRetired.Load(); n != links-1 {
		t.Fatalf("while shard 0 was held, shard 1 retired %d of the other %d links", n, links-1)
	}
	m := e.Metrics()
	if got, want := m.Shards[1].WindowsScored, uint64((links-1)*windows); got < want {
		t.Errorf("shard 1 scored %d windows, want at least the other links' %d", got, want)
	}
	if m.WindowsScored != links*windows {
		t.Errorf("fleet scored %d windows, want %d", m.WindowsScored, links*windows)
	}
}
