package csinet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mlink/internal/csi"
)

// DefaultRedialTimeout bounds one reconnect attempt when the caller's
// context carries no deadline of its own.
const DefaultRedialTimeout = 5 * time.Second

// Redialer is a reconnectable frame source over a csinet client: Next
// yields pooled frames from the current connection and degrades to a typed
// ErrLinkDown when the transport fails, and Reconnect re-establishes it.
// It implements the supervision layer's Source, Reconnector, Interrupter,
// ActivityReporter, and frame-recycler contracts, so a supervised engine
// link backed by a Redialer survives collector restarts with jittered
// backoff instead of dying on the first broken read.
//
// Concurrency: Next and Reconnect belong to one goroutine (the
// supervisor's producer); Interrupt, LastActivity, Recycle, and Close are
// safe from any goroutine.
type Redialer struct {
	addr    string
	timeout time.Duration

	c    atomic.Pointer[Client]
	pool atomic.Pointer[csi.FramePool]

	// Announcement of the last successful connection; producer-owned
	// (written only by Reconnect).
	hello Hello
}

// Redial prepares a redialing source for addr without connecting; the
// first Connect (or Reconnect) establishes the stream.
func Redial(addr string) *Redialer {
	return &Redialer{addr: addr, timeout: DefaultRedialTimeout}
}

// Connect establishes the initial connection. Synonymous with Reconnect,
// named for call-site clarity.
func (r *Redialer) Connect(ctx context.Context) error { return r.Reconnect(ctx) }

// Reconnect dials the server again, replacing any previous connection. A
// context without a deadline gets DefaultRedialTimeout. On success the
// frame pool is kept when the announced shape is unchanged (the pool
// itself rejects mismatched frames, so a shape change just rebuilds it).
func (r *Redialer) Reconnect(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	c, err := Dial(ctx, r.addr)
	if err != nil {
		return fmt.Errorf("redial: %w", err)
	}
	h := c.Hello()
	if r.pool.Load() == nil || r.hello.NumAntennas != h.NumAntennas || r.hello.NumSubcarriers != h.NumSubcarriers {
		r.pool.Store(csi.NewFramePool(int(h.NumAntennas), int(h.NumSubcarriers)))
	}
	r.hello = h
	if old := r.c.Swap(c); old != nil {
		old.Close()
	}
	return nil
}

// Hello returns the stream metadata the last successful connection
// announced. Like Reconnect, it belongs to the goroutine that drives Next.
func (r *Redialer) Hello() Hello { return r.hello }

// Next receives one frame from the current connection into a pooled frame.
// Any receive failure tears the connection down and returns an error that
// matches ErrLinkDown and wraps the cause, so a clean peer close also
// matches io.EOF; the caller (typically a supervisor) decides when to
// Reconnect.
func (r *Redialer) Next() (*csi.Frame, error) {
	c := r.c.Load()
	if c == nil {
		return nil, fmt.Errorf("%s not connected: %w", r.addr, ErrLinkDown)
	}
	f := r.pool.Load().Get()
	if err := c.RecvInto(f); err != nil {
		r.pool.Load().Put(f)
		if r.c.CompareAndSwap(c, nil) {
			c.Close()
		}
		return nil, fmt.Errorf("%s: %w: %w", r.addr, err, ErrLinkDown)
	}
	return f, nil
}

// Recycle returns a frame to the pool for a future Next.
func (r *Redialer) Recycle(f *csi.Frame) {
	if p := r.pool.Load(); p != nil {
		p.Put(f)
	}
}

// Interrupt unblocks a pending Next by closing the current connection; the
// read then fails with ErrLinkDown (or the caller's shutdown wins first).
func (r *Redialer) Interrupt() {
	if c := r.c.Load(); c != nil {
		c.Close()
	}
}

// LastActivity reports the current connection's last message time —
// heartbeats included — or the zero time when disconnected.
func (r *Redialer) LastActivity() time.Time {
	if c := r.c.Load(); c != nil {
		return c.LastActivity()
	}
	return time.Time{}
}

// Close tears down the current connection, if any.
func (r *Redialer) Close() error {
	if c := r.c.Swap(nil); c != nil {
		return c.Close()
	}
	return nil
}
