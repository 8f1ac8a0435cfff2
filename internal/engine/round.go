package engine

import (
	"sync"
	"sync/atomic"
)

// Reasons a link is outside the set a fusion round waits on (see the
// package doc for the rule). A link is waited on when none is set.
const (
	outRetired   uint8 = 1 << iota // finished for the current Run
	outRecal                       // an online recalibration is rebuilding it
	outLifecycle                   // its supervisor reports Stale, Down or Recovering
)

// roundMember is one link's fusion-round state, guarded by rounds.mu.
type roundMember struct {
	// seenIn is the id of the open round the link last published in; the
	// link has published in the open round iff seenIn == closed+1.
	seenIn uint64
	out    uint8
}

// rounds closes fusion rounds and hands each closed round to Config.OnRound.
// Every publication and every change to the waited-for set takes mu once;
// the counters make the close check O(1).
type rounds struct {
	mu sync.Mutex
	// closed is the id of the latest closed round (0 before the first). It
	// is written under mu and read lock-free by VerdictInto and MetricsInto.
	closed atomic.Uint64
	// seen counts links that published since the last close; waiting counts
	// the waited-for links and waitingSeen those of them that published.
	seen, waiting, waitingSeen int

	// delivered is the latest round handed to OnRound. delivering marks a
	// goroutine inside deliverRounds, which owns v while it is set.
	delivered  uint64
	delivering bool
	v          SiteVerdict
}

// publish records that m's link published a decision and reports whether
// that closed a round.
func (r *rounds) publish(m *roundMember) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if open := r.closed.Load() + 1; m.seenIn != open {
		m.seenIn = open
		r.seen++
		if m.out == 0 {
			r.waitingSeen++
		}
	}
	return r.tryClose()
}

// set raises (out) or clears one reason m's link is not waited on and
// reports whether the change closed a round.
func (r *rounds) set(m *roundMember, why uint8, out bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := m.out
	if out {
		m.out |= why
	} else {
		m.out &^= why
	}
	if (was == 0) != (m.out == 0) {
		d := 1
		if m.out != 0 {
			d = -1
		}
		r.waiting += d
		if m.seenIn == r.closed.Load()+1 {
			r.waitingSeen += d
		}
	}
	return r.tryClose()
}

// reset clears the reasons in mask on every link and recounts the
// waited-for set. Clearing only grows the set, so no round can close here.
// Called under e.mu whenever the fleet or the Run changes.
func (r *rounds) reset(links []*link, mask uint8) {
	r.mu.Lock()
	defer r.mu.Unlock()
	open := r.closed.Load() + 1
	r.waiting, r.waitingSeen = 0, 0
	for _, l := range links {
		l.round.out &^= mask
		if l.round.out == 0 {
			r.waiting++
			if l.round.seenIn == open {
				r.waitingSeen++
			}
		}
	}
}

// tryClose closes the open round when some link has published in it and
// every waited-for link has. Under mu.
func (r *rounds) tryClose() bool {
	if r.seen == 0 || r.waitingSeen < r.waiting {
		return false
	}
	r.closed.Add(1)
	r.seen, r.waitingSeen = 0, 0
	return true
}

// setRoundOut raises or clears one reason l is not waited on and delivers
// the round that closes, if any. No engine lock may be held.
func (e *Engine) setRoundOut(l *link, why uint8, out bool) {
	if e.rounds.set(&l.round, why, out) {
		e.deliverRounds()
	}
}

// deliverRounds hands every closed, undelivered round to Config.OnRound, in
// id order and one call at a time. Call it with no engine lock held, after
// a publish or set that closed a round. A goroutine that finds another
// already delivering leaves its round to that one, which picks it up after
// its current call returns — so a callback whose own actions close a round
// never re-enters itself. A round whose fusion fails is skipped.
func (e *Engine) deliverRounds() {
	cb := e.cfg.OnRound
	if cb == nil {
		return
	}
	r := &e.rounds
	r.mu.Lock()
	if r.delivering {
		r.mu.Unlock()
		return
	}
	r.delivering = true
	for r.delivered < r.closed.Load() {
		r.delivered++
		id := r.delivered
		r.mu.Unlock()
		if e.VerdictInto(&r.v) == nil {
			r.v.Round = id
			cb(&r.v)
		}
		r.mu.Lock()
	}
	r.delivering = false
	r.mu.Unlock()
}
