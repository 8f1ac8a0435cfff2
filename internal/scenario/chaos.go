package scenario

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"mlink/internal/csi"
)

// ErrChaosDown is the transport failure ChaosSource injects: returned by
// Next for FailEvery faults and by Reconnect while FailConnects redial
// attempts remain. Supervised links treat it like any link-down error —
// enter Down, back off, redial.
var ErrChaosDown = errors.New("scenario: chaos link down")

// ErrTornFrame models a corrupt wire message (bad CRC, truncated payload):
// the frame is unusable and the connection cannot be trusted, so the only
// sane reaction is to drop the transport and redial.
var ErrTornFrame = errors.New("scenario: torn frame")

// FrameSource is the frame stream ChaosSource wraps. It matches
// engine.Source, so any engine-compatible source (DriftStream, a replay, a
// pooled extractor source) can be made misbehaving.
type FrameSource interface {
	Next() (*csi.Frame, error)
}

// ChaosConfig selects which faults a ChaosSource injects. Every fault is
// driven by deterministic frame counters — two runs with the same config
// and the same inner source misbehave identically — and only applies while
// the source is armed (Arm(true)), so a test can establish a clean baseline
// phase, flip chaos on, and flip it off again to watch recovery. Zero-value
// fields disable their fault.
type ChaosConfig struct {
	// StallEvery injects a stall every N armed Next calls.
	StallEvery int
	// StallFor is how long each injected stall blocks (default 0: no-op).
	StallFor time.Duration

	// DripEvery delays every Nth armed Next by DripDelay — a slow-drip
	// source that is alive but too slow to fill windows at line rate.
	DripEvery int
	DripDelay time.Duration

	// EOFEvery makes every Nth armed Next return a mid-stream io.EOF — the
	// peer closed the connection under us.
	EOFEvery int

	// FailEvery makes every Nth armed Next return ErrChaosDown.
	FailEvery int
	// FailConnects makes the first N Reconnect attempts after each failure
	// fail with ErrChaosDown — forcing the supervisor through its backoff
	// ladder before a redial sticks.
	FailConnects int

	// DropEvery starts a silent drop burst every Nth armed Next: DropBurst
	// frames are pulled from the inner source and recycled without being
	// delivered (a bursty lossy transport, not a dead one).
	DropEvery int
	DropBurst int

	// TornEvery makes every Nth armed Next return ErrTornFrame.
	TornEvery int
}

// ChaosStats counts what a ChaosSource actually did — the ground truth a
// soak test checks its observations against.
type ChaosStats struct {
	// Delivered counts frames handed to the consumer (armed or not).
	Delivered uint64
	// Dropped counts frames consumed and recycled by drop bursts.
	Dropped uint64
	// Stalls, Drips, EOFs, Fails, Torn count injected faults by kind.
	Stalls, Drips, EOFs, Fails, Torn uint64
	// Reconnects counts successful Reconnect calls; FailedConnects the
	// injected redial failures.
	Reconnects, FailedConnects uint64
}

// ChaosSource wraps a FrameSource with deterministic fault injection: stalls,
// slow drip, mid-stream EOF, transport failures, flapping reconnects, drop
// bursts, and torn messages. It implements the supervise source surface —
// Next, Recycle, Reconnect, Interrupt — so a supervised engine link can be
// pointed at it unchanged, and the chaos harness observes how the rest of
// the fleet behaves while this one link misbehaves.
//
// Chaos is off until Arm(true); an unarmed ChaosSource is a transparent
// pass-through. Arm resets the fault counters, so each armed phase replays
// the same deterministic fault schedule.
//
// Next is safe for one consumer goroutine with Arm/Stall/Resume/Interrupt
// called concurrently from others (the shape the supervisor and a test
// driver produce).
type ChaosSource struct {
	inner FrameSource

	mu        sync.Mutex
	cfg       ChaosConfig
	armed     bool
	n         uint64 // armed Next calls since the last Arm
	failsLeft int    // injected redial failures remaining
	stats     ChaosStats
	stall     chan struct{} // non-nil while manually stalled; closed by Resume
	release   chan struct{} // closed by Arm/Resume to cut short a scheduled sleep
	intr      chan struct{} // closed by Interrupt
	intrDone  bool
}

// NewChaosSource wraps inner with the given fault schedule, initially
// unarmed.
func NewChaosSource(inner FrameSource, cfg ChaosConfig) *ChaosSource {
	return &ChaosSource{
		inner:   inner,
		cfg:     cfg,
		release: make(chan struct{}),
		intr:    make(chan struct{}),
	}
}

// Arm enables (true) or disables (false) fault injection. Arming resets the
// deterministic fault counters and the remaining-redial-failure budget, so
// every armed phase starts the same schedule from the top. Arming in either
// direction cuts short any in-flight scheduled stall or drip sleep, and
// disarming also releases a manual Stall — Arm(false) always gets the
// source flowing again.
func (c *ChaosSource) Arm(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = on
	c.n = 0
	c.failsLeft = 0
	if on {
		c.failsLeft = c.cfg.FailConnects
	}
	if !on && c.stall != nil {
		close(c.stall)
		c.stall = nil
	}
	close(c.release)
	c.release = make(chan struct{})
}

// Stall blocks the source manually: Next waits until Resume, Interrupt, or
// Arm(false). Unlike StallEvery this is operator-driven, for
// tests that want to control exactly when a link goes quiet.
func (c *ChaosSource) Stall() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stall == nil {
		c.stall = make(chan struct{})
	}
}

// Resume releases a manual Stall and cuts short any in-flight scheduled
// stall or drip sleep.
func (c *ChaosSource) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stall != nil {
		close(c.stall)
		c.stall = nil
	}
	close(c.release)
	c.release = make(chan struct{})
}

// Stats snapshots the fault and delivery counters.
func (c *ChaosSource) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Next implements the engine source contract with faults injected per the
// config. Fault order on an armed call: transport errors (fail, EOF, torn)
// first, then stalls and drip delays, then drop bursts, then the real frame.
func (c *ChaosSource) Next() (*csi.Frame, error) {
	for {
		c.mu.Lock()
		stall, intr := c.stall, c.intr
		if stall == nil && !c.armed {
			c.mu.Unlock()
			f, err := c.inner.Next()
			if err == nil {
				c.mu.Lock()
				c.stats.Delivered++
				c.mu.Unlock()
			}
			return f, err
		}
		if stall != nil {
			c.mu.Unlock()
			select {
			case <-stall:
				continue // re-evaluate state after release
			case <-intr:
				return nil, io.EOF
			}
		}

		// Armed: advance the deterministic schedule.
		c.n++
		n := c.n
		cfg := c.cfg
		var (
			sleep time.Duration
			drop  int
			fail  error
		)
		switch {
		case cfg.FailEvery > 0 && n%uint64(cfg.FailEvery) == 0:
			c.stats.Fails++
			fail = ErrChaosDown
		case cfg.EOFEvery > 0 && n%uint64(cfg.EOFEvery) == 0:
			c.stats.EOFs++
			fail = io.EOF
		case cfg.TornEvery > 0 && n%uint64(cfg.TornEvery) == 0:
			c.stats.Torn++
			fail = ErrTornFrame
		}
		if fail == nil && cfg.StallFor > 0 && cfg.StallEvery > 0 && n%uint64(cfg.StallEvery) == 0 {
			c.stats.Stalls++
			sleep = cfg.StallFor
		}
		if fail == nil && sleep == 0 && cfg.DripEvery > 0 && cfg.DripDelay > 0 && n%uint64(cfg.DripEvery) == 0 {
			c.stats.Drips++
			sleep = cfg.DripDelay
		}
		if fail == nil && cfg.DropEvery > 0 && cfg.DropBurst > 0 && n%uint64(cfg.DropEvery) == 0 {
			drop = cfg.DropBurst
		}
		release := c.release
		c.mu.Unlock()

		if fail != nil {
			return nil, fail
		}
		if sleep > 0 && !c.wait(sleep, release, intr) {
			return nil, io.EOF
		}
		for drop > 0 {
			f, err := c.inner.Next()
			if err != nil {
				return nil, err
			}
			c.Recycle(f)
			c.mu.Lock()
			c.stats.Dropped++
			c.mu.Unlock()
			drop--
		}
		f, err := c.inner.Next()
		if err == nil {
			c.mu.Lock()
			c.stats.Delivered++
			c.mu.Unlock()
		}
		return f, err
	}
}

// wait sleeps for d; release (an Arm/Resume) cuts the sleep short and lets
// the call proceed, Interrupt aborts it (returns false).
func (c *ChaosSource) wait(d time.Duration, release, intr <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-release:
		return true
	case <-intr:
		return false
	}
}

// Recycle implements the recycler contract by delegating to the inner
// source when it pools frames; otherwise the frame is left to the GC.
func (c *ChaosSource) Recycle(f *csi.Frame) {
	if r, ok := c.inner.(interface{ Recycle(*csi.Frame) }); ok {
		r.Recycle(f)
	}
}

// Reconnect implements the supervise reconnect contract. While armed, the
// first FailConnects attempts after each Arm fail with ErrChaosDown — the
// flapping-redial case — after which reconnects succeed (delegating to the
// inner source if it is itself reconnectable).
func (c *ChaosSource) Reconnect(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if c.armed && c.failsLeft > 0 {
		c.failsLeft--
		c.stats.FailedConnects++
		c.mu.Unlock()
		return ErrChaosDown
	}
	c.mu.Unlock()
	if r, ok := c.inner.(interface{ Reconnect(context.Context) error }); ok {
		if err := r.Reconnect(ctx); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.stats.Reconnects++
	c.mu.Unlock()
	return nil
}

// Interrupt unblocks a stalled or sleeping Next (it returns io.EOF) and
// propagates to the inner source when it supports interruption. Used at
// shutdown; a ChaosSource is not reusable after Interrupt.
func (c *ChaosSource) Interrupt() {
	c.mu.Lock()
	if !c.intrDone {
		c.intrDone = true
		close(c.intr)
	}
	c.mu.Unlock()
	if in, ok := c.inner.(interface{ Interrupt() }); ok {
		in.Interrupt()
	}
}
