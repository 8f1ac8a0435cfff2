package engine

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
	"mlink/internal/supervise"
)

// TestRoundRule steps the round rule through publications and membership
// changes on three links and checks where each round closes.
func TestRoundRule(t *testing.T) {
	var r rounds
	ls := []*link{{id: "a"}, {id: "b"}, {id: "c"}}
	r.reset(ls, 0)
	a, b, c := &ls[0].round, &ls[1].round, &ls[2].round
	var prev uint64
	step := func(name string, closed bool, want uint64) {
		t.Helper()
		if got := r.closed.Load(); got != want || closed != (want != prev) {
			t.Fatalf("%s: closed=%v, round id %d; want id %d", name, closed, got, want)
		}
		prev = want
	}
	step("a publishes", r.publish(a), 0)
	step("a publishes again", r.publish(a), 0)
	step("b publishes", r.publish(b), 0)
	step("c publishes", r.publish(c), 1)
	// c stalls: once it leaves the waited-for set, a and b close rounds.
	step("c goes stale", r.set(c, outLifecycle, true), 1)
	step("a publishes", r.publish(a), 1)
	step("b publishes", r.publish(b), 2)
	// b starts recalibrating after a published: leaving closes the round.
	step("a publishes", r.publish(a), 2)
	step("b recalibrates", r.set(b, outRecal, true), 3)
	// Rejoining never closes a round; with nobody published, leaving
	// doesn't either.
	step("b rejoins", r.set(b, outRecal, false), 3)
	step("c rejoins", r.set(c, outLifecycle, false), 3)
	step("a retires", r.set(a, outRetired, true), 3)
	step("b publishes", r.publish(b), 3)
	step("c publishes", r.publish(c), 4)
	// A link outside the set may still publish; that never closes a round,
	// but the publication counts once the link is waited on again (here
	// through the Run-start reset, which itself closes nothing).
	step("a publishes while retired", r.publish(a), 4)
	r.reset(ls, outRetired|outRecal|outLifecycle)
	step("b publishes", r.publish(b), 4)
	step("c publishes", r.publish(c), 5)
}

// roundFleet registers one replaying link per recorded stream on e and
// calibrates it; wrap, when non-nil, may replace a link's source.
func roundFleet(t *testing.T, e *Engine, links int, seed int64, wrap func(i int, src Source) Source) {
	t.Helper()
	scens, frames := skewedFrames(t, links, seed, 2*60+10)
	for i, s := range scens {
		var src Source = NewReplaySource(frames[i], true)
		if wrap != nil {
			src = wrap(i, src)
		}
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink("l"+strconv.Itoa(i), cfg, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
}

// windowGate lets a source deliver one window's frames per release once it
// is armed, so a link can have at most one window ready per round. While
// it waits for a release it reports activity, as a network source's
// heartbeats do, so the supervisor keeps the idle link Live.
type windowGate struct {
	src    Source
	size   int
	armed  bool          // set before Run; read by the producer after
	credit chan struct{} // one token per releasable frame
	stop   chan struct{}
	once   sync.Once
}

func newWindowGate(src Source, size int) *windowGate {
	return &windowGate{src: src, size: size,
		credit: make(chan struct{}, 2*size), stop: make(chan struct{})}
}

func (g *windowGate) Next() (*csi.Frame, error) {
	if g.armed {
		select {
		case <-g.credit:
		case <-g.stop:
			return nil, context.Canceled
		}
	}
	return g.src.Next()
}

// release lets one more window through. It reports false, releasing
// nothing more, when the link still holds two unread windows: rounds closed
// without it.
func (g *windowGate) release() bool {
	for range g.size {
		select {
		case g.credit <- struct{}{}:
		default:
			return false
		}
	}
	return true
}

func (g *windowGate) LastActivity() time.Time { return time.Now() }

func (g *windowGate) Interrupt() { g.once.Do(func() { close(g.stop) }) }

// TestRoundSkipsStalledLink stalls one supervised link on a single shard.
// Once its supervisor reports it Down, every round holds each live link
// exactly once and never the stalled one: the stall delays rounds by at
// most StaleAfter, after which they close on the live links alone. Each
// live link is gated to one window per round — released when the previous
// round closes — so no link can get ahead of its siblings however the host
// schedules the shard and the ingest producers: at one CPU the shard holds
// the processor while any link has a window, and a producer whose ring ran
// dry would otherwise wait for the shard to be preempted.
func TestRoundSkipsStalledLink(t *testing.T) {
	const want = 30
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		mu       sync.Mutex
		cur      []string // links that decided since the last delivered round
		down     bool     // l0 was reported Down
		watching bool     // the open round began after l0 went Down
		checked  int
		gates    []*windowGate
	)
	e := New(Config{
		Workers:    1,
		WindowSize: 25,
		OnDecision: func(id string, _ core.Decision) {
			mu.Lock()
			cur = append(cur, id)
			mu.Unlock()
		},
		OnRound: func(v *SiteVerdict) {
			mu.Lock()
			defer mu.Unlock()
			held := cur
			cur = nil
			for i, g := range gates {
				if !g.release() {
					t.Errorf("round %d closed while l%d held two unscored windows", v.Round, i+1)
				}
			}
			if checked >= want {
				return
			}
			if watching {
				slices.Sort(held)
				if !slices.Equal(held, []string{"l1", "l2", "l3"}) {
					t.Errorf("round %d holds %v, want each live link exactly once", v.Round, held)
				}
				if checked++; checked == want {
					cancel()
				}
			}
			watching = down
		},
	})
	pol := supervise.Policy{
		StaleAfter: 100 * time.Millisecond,
		DownAfter:  300 * time.Millisecond,
		OnTransition: func(id string, _, to adapt.Lifecycle, _ error) {
			if id == "l0" && to == adapt.LifecycleDown {
				mu.Lock()
				down = true
				mu.Unlock()
			}
		},
	}
	if err := e.SetSupervision(&pol); err != nil {
		t.Fatal(err)
	}
	var stalled *scenario.ChaosSource
	roundFleet(t, e, 4, 43, func(i int, src Source) Source {
		if i != 0 {
			g := newWindowGate(src, 25)
			gates = append(gates, g)
			return g
		}
		stalled = scenario.NewChaosSource(src, scenario.ChaosConfig{})
		return stalled
	})
	for _, g := range gates {
		g.armed = true
		g.release()
	}
	stalled.Stall()
	if err := e.Run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if checked < want {
		t.Fatalf("checked %d rounds after l0 went down (down=%v), want %d", checked, down, want)
	}
}

// TestRoundIDsUnderStealing runs four shards with shard 0 held on its first
// link until the others have scored every other link, after which links
// migrate (holdForMigration). OnRound ids must rise by
// exactly one, calls must never overlap, and no round may close before
// every link has decided in it — so at round k's delivery each link has
// decided at least k windows, the held link included. (Counting decisions
// modulo the fleet size would have closed rounds while l0 sat held.)
func TestRoundIDsUnderStealing(t *testing.T) {
	const links, windows = 9, 12
	var (
		decided  [links]atomic.Int64
		inFlight atomic.Bool
		last     uint64 // touched only inside OnRound, whose calls are ordered
	)
	e := New(Config{
		Workers:    4,
		WindowSize: 25,
		OnDecision: func(id string, _ core.Decision) {
			i, _ := strconv.Atoi(id[1:])
			decided[i].Add(1)
		},
		OnRound: func(v *SiteVerdict) {
			if !inFlight.CompareAndSwap(false, true) {
				t.Errorf("round %d delivered while another OnRound call ran", v.Round)
				return
			}
			defer inFlight.Store(false)
			if v.Round != last+1 {
				t.Errorf("round id %d follows %d", v.Round, last)
			}
			last = v.Round
			for i := range decided {
				if n := decided[i].Load(); n < int64(v.Round) {
					t.Errorf("round %d closed with l%d at %d decisions", v.Round, i, n)
				}
			}
			// Stay in the call long enough for other shards to close the
			// next rounds meanwhile: those must wait for this call.
			time.Sleep(time.Millisecond)
		},
	})
	roundFleet(t, e, links, 44, nil)
	// Shard 0 is held on its first link until the other shards have scored
	// every other link, then it takes links they scored last.
	holdForMigration(e)
	if err := e.Run(context.Background(), windows); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Steals == 0 {
		t.Fatal("no link was stolen; the test did not exercise migration")
	}
	if last == 0 || last != m.Rounds || m.Rounds > windows {
		t.Fatalf("delivered up to round %d, engine closed %d, want 1..%d and equal", last, m.Rounds, windows)
	}
}

// recalGate holds a link's recalibration capture until release is closed
// (or ten seconds pass), and closes started on the first read it sees the
// link recalibrating; calibration and scoring reads pass straight through.
// l is set once the link is registered.
type recalGate struct {
	Source
	l       *link
	release chan struct{}
	started chan struct{}
	once    sync.Once
}

func (g *recalGate) Next() (*csi.Frame, error) {
	if g.l != nil && g.l.state.recalibrating() {
		g.once.Do(func() { close(g.started) })
		select {
		case <-g.release:
		case <-time.After(10 * time.Second):
		}
	}
	return g.Source.Next()
}

// holdTail passes a link's first from frames straight through, then holds
// every later read until until is closed. A hold that outlasts the bound
// fails the read, and with it the run, with the error why.
type holdTail struct {
	Source
	from  int
	read  int
	until <-chan struct{}
	why   string
}

func (h *holdTail) Next() (*csi.Frame, error) {
	if h.read++; h.read > h.from {
		select {
		case <-h.until:
		case <-time.After(20 * time.Second):
			return nil, errors.New(h.why)
		}
	}
	return h.Source.Next()
}

// TestRoundRecalFromCallback requests a recalibration from inside OnRound
// while holding a lock the callback also takes, as fleet.Coordinator.Observe
// does. The run must not deadlock, and rounds must keep closing on the
// other links while the recalibrating one rebuilds: its capture is held
// until two such rounds have been delivered. l0 and l2 hold their last
// windows until l1 is recalibrating, so those rounds exist however the
// shards are scheduled. The request rides round 1, which closes once each
// link has scored one window — before any hold — so the hold can never keep
// the request itself from being made. l1 holds its second window until the
// request is made: otherwise a shard scheduled alone (GOMAXPROCS=1 or a
// loaded host) can score all of l1's windows before round 1 closes, so l1
// retires, and the revived rebuild may land on the shard scoring l0 and l2,
// whose gated capture then stalls every round.
func TestRoundRecalFromCallback(t *testing.T) {
	const (
		windows = 40
		tail    = 4 // windows l0 and l2 hold back for l1's recalibration
	)
	var (
		mu        sync.Mutex // the coordinator's lock
		last      uint64
		requested bool
		duringRec int // rounds fused while l1 was recalibrating
	)
	gate := &recalGate{release: make(chan struct{}), started: make(chan struct{})}
	madeRequest := make(chan struct{})
	var e *Engine
	e = New(Config{
		Workers:    2,
		WindowSize: 25,
		OnRound: func(v *SiteVerdict) {
			mu.Lock()
			defer mu.Unlock()
			if v.Round != last+1 {
				t.Errorf("round id %d follows %d", v.Round, last)
			}
			last = v.Round
			if v.Coverage.Recalibrating > 0 {
				if duringRec++; duringRec == 2 {
					close(gate.release)
				}
			}
			if !requested && v.Round == 1 {
				requested = true
				if err := e.RequestRecalibration("l1", 100); err != nil {
					t.Errorf("RequestRecalibration: %v", err)
				}
				close(madeRequest)
			}
		},
	})
	// While one shard rebuilds l1, the other keeps taking l0 and l2 from the
	// run queue. Each link first reads 2·60 calibration frames (roundFleet),
	// then 25 per window.
	roundFleet(t, e, 3, 45, func(i int, src Source) Source {
		if i != 1 {
			return &holdTail{Source: src, from: 2*60 + (windows-tail)*25, until: gate.started,
				why: "l1 never started recalibrating while this link held its last windows"}
		}
		gate.Source = &holdTail{Source: src, from: 2*60 + 25, until: madeRequest,
			why: "round 1 never requested l1's recalibration"}
		return gate
	})
	gate.l = e.byID["l1"]
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), windows) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run deadlocked after a recalibration requested from OnRound")
	}
	mu.Lock()
	defer mu.Unlock()
	if !requested || e.RecalibrationPending("l1") {
		t.Fatalf("recalibration requested=%v, still pending=%v", requested, e.RecalibrationPending("l1"))
	}
	if duringRec < 2 {
		t.Fatalf("%d rounds closed while l1 recalibrated, want rounds to go on without it", duringRec)
	}
}

// TestRoundDeliveryNeverOverlaps closes rounds from many goroutines at once,
// as shards and supervisor watchers can, and once from inside the callback,
// as a callback whose own actions change round membership can. Every round
// must be delivered exactly once, in id order, with no call overlapping or
// re-entering another.
func TestRoundDeliveryNeverOverlaps(t *testing.T) {
	const closers = 16
	var (
		e        *Engine
		inFlight atomic.Bool
		armed    bool   // set before the closers start
		nested   bool   // touched only inside OnRound
		last     uint64 // touched only inside OnRound
	)
	closeOne := func() {
		e.rounds.mu.Lock()
		e.rounds.closed.Add(1)
		e.rounds.mu.Unlock()
		e.deliverRounds()
	}
	e = New(Config{
		Workers:    1,
		WindowSize: 25,
		OnRound: func(v *SiteVerdict) {
			if !inFlight.CompareAndSwap(false, true) {
				t.Errorf("round %d delivered while another OnRound call ran", v.Round)
				return
			}
			defer inFlight.Store(false)
			if v.Round != last+1 {
				t.Errorf("round id %d follows %d", v.Round, last)
			}
			last = v.Round
			if armed && !nested {
				nested = true
				closeOne()
			}
			time.Sleep(100 * time.Microsecond)
		},
	})
	roundFleet(t, e, 2, 46, nil)
	// One window per link, so every delivered round has decisions to fuse.
	if err := e.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	armed = true
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			closeOne()
		}()
	}
	wg.Wait()
	if !nested || last != e.rounds.closed.Load() {
		t.Fatalf("delivered up to round %d of %d (nested close ran: %v)", last, e.rounds.closed.Load(), nested)
	}
}
