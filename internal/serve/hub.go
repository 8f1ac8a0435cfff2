package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"mlink/internal/engine"
)

// VerdictSource produces the latest fused site verdict without allocating.
// Both the internal engine and the facade Engine satisfy it.
type VerdictSource interface {
	VerdictInto(*engine.SiteVerdict) error
}

var (
	// ErrClosed is returned by Subscription.Next after Close (or hub Close).
	ErrClosed = errors.New("serve: subscription closed")
	// ErrShed is returned by Subscription.Next after the hub shed the
	// subscriber for falling MaxLag consecutive rounds behind.
	ErrShed = errors.New("serve: subscription shed (consumer too slow)")
	// ErrHubClosed is returned by Subscribe on a closed hub.
	ErrHubClosed = errors.New("serve: hub closed")
)

// HubOptions tunes the fan-out hub. The zero value selects the defaults.
type HubOptions struct {
	// RingDepth is each subscriber's latest-wins buffer in rounds
	// (default 4). A subscriber more than RingDepth rounds behind loses the
	// oldest buffered round, never the newest.
	RingDepth int
	// MaxLag is how many consecutive rounds a subscriber may drop before
	// the hub sheds it (default 256; negative = never shed). Any successful
	// read resets the count, so a slow-but-draining consumer survives while
	// a wedged one is cut loose without ever back-pressuring the engine.
	MaxLag int
}

const (
	defaultRingDepth = 4
	defaultMaxLag    = 256
	// maxFreeFrames bounds the recycled-frame freelist. Steady state keeps
	// roughly RingDepth+1 frames in flight regardless of subscriber count
	// (subscribers share frames); anything beyond the cap is left to the GC.
	maxFreeFrames = 64
)

// Frame is one fusion round serialized once, shared by every subscriber.
// Bytes returns the complete SSE frame ("event: verdict\nid: N\ndata:
// {...}\n\n") ready to write to a client; Release returns the buffer to the
// hub's freelist once the last subscriber is done with it. A Frame is
// immutable between Publish and the final Release.
type Frame struct {
	hub   *Hub
	data  []byte
	round uint64
	refs  atomic.Int64
}

// Bytes is the frame's wire form. Valid until Release.
func (f *Frame) Bytes() []byte { return f.data }

// Round is the hub's sequence number for this frame (the SSE id). It counts
// the hub's encodes, not the engine's fusion rounds: the verdict's own
// round id is the "round" field of the frame's JSON.
func (f *Frame) Round() uint64 { return f.round }

// Release drops the caller's reference; the last release recycles the
// buffer. Call exactly once per frame obtained from Next/TryNext.
func (f *Frame) Release() {
	if f.refs.Add(-1) > 0 {
		return
	}
	h := f.hub
	h.freeMu.Lock()
	if len(h.free) < maxFreeFrames {
		h.free = append(h.free, f)
	}
	h.freeMu.Unlock()
}

// Hub is the encode-once verdict fan-out: each fusion round is read from the
// engine's lock-free snapshots and serialized exactly once into a pooled
// Frame, and every subscriber receives a reference to that shared buffer
// through a small latest-wins ring. The scoring path's only cost per round
// is Notify — an atomic increment and a non-blocking channel send — no
// matter how many thousand subscribers are attached; a stalled subscriber
// coalesces to the newest round and is eventually shed, never blocking the
// engine or its sibling watchers.
type Hub struct {
	src  VerdictSource
	opts HubOptions

	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	closed bool

	freeMu sync.Mutex
	free   []*Frame

	rounds  atomic.Uint64 // Notify calls (fusion rounds signalled)
	encodes atomic.Uint64 // frames actually serialized
	dropped atomic.Uint64 // rounds lost to latest-wins coalescing
	shed    atomic.Uint64 // subscribers cut loose for sustained lag

	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	runDone  chan struct{}
	started  bool

	// verdict is the encoder's scratch; PublishRound is single-caller (the
	// Start goroutine, or a test/benchmark driving rounds synchronously).
	verdict engine.SiteVerdict
}

// NewHub builds a hub over src. Call Start to serialize rounds in the
// background on Notify, or drive PublishRound synchronously.
func NewHub(src VerdictSource, opts HubOptions) *Hub {
	if opts.RingDepth <= 0 {
		opts.RingDepth = defaultRingDepth
	}
	if opts.MaxLag == 0 {
		opts.MaxLag = defaultMaxLag
	}
	return &Hub{
		src:     src,
		opts:    opts,
		subs:    make(map[*Subscription]struct{}),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		runDone: make(chan struct{}),
	}
}

// Notify signals that a fusion round completed. It is wait-free — one atomic
// add and one non-blocking send — and safe to call from scoring shards.
// Rounds signalled while the encoder is busy coalesce: the next encode
// serializes the newest state once, not the backlog.
func (h *Hub) Notify() {
	h.rounds.Add(1)
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// Start launches the encoder goroutine: each batch of Notify signals becomes
// one PublishRound. Close stops it.
func (h *Hub) Start() {
	h.mu.Lock()
	if h.started || h.closed {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	go h.run()
}

func (h *Hub) run() {
	defer close(h.runDone)
	var published uint64
	for {
		select {
		case <-h.stop:
			return
		case <-h.wake:
		}
		// Drain: re-check the round counter after each encode so rounds that
		// arrived mid-serialization coalesce into exactly one more encode.
		for {
			seen := h.rounds.Load()
			if seen == published {
				break
			}
			published = seen
			// Before the first fused round the source has nothing to
			// serialize; the error is not sticky and the next Notify retries.
			_ = h.PublishRound()
		}
	}
}

// PublishRound reads the current verdict, serializes it once, and hands the
// shared frame to every subscriber. It is the synchronous form of the
// Notify→Start pipeline for tests and benchmarks; do not call it
// concurrently with itself or a Started hub.
func (h *Hub) PublishRound() error {
	if err := h.src.VerdictInto(&h.verdict); err != nil {
		return err
	}
	f := h.getFrame()
	f.round = h.encodes.Add(1)
	// The SSE envelope first, then the JSON document; the JSON never
	// contains a raw newline, so a single data: line is always a valid
	// frame.
	b := append(f.data[:0], "event: verdict\nid: "...)
	b = strconv.AppendUint(b, f.round, 10)
	b = append(b, "\ndata: "...)
	b = AppendVerdict(b, &h.verdict)
	f.data = append(b, '\n', '\n')
	h.broadcast(f)
	return nil
}

func (h *Hub) getFrame() *Frame {
	h.freeMu.Lock()
	var f *Frame
	if n := len(h.free); n > 0 {
		f = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	}
	h.freeMu.Unlock()
	if f == nil {
		f = &Frame{hub: h}
	}
	return f
}

func (h *Hub) broadcast(f *Frame) {
	// The broadcast loop holds its own reference so a subscriber releasing
	// mid-loop cannot recycle the frame under the remaining pushes.
	f.refs.Store(1)
	h.mu.Lock()
	for s := range h.subs {
		f.refs.Add(1)
		if s.push(f) {
			delete(h.subs, s)
			h.shed.Add(1)
		}
	}
	h.mu.Unlock()
	f.Release()
}

// Subscribe registers a new verdict watcher.
func (h *Hub) Subscribe() (*Subscription, error) {
	s := &Subscription{
		hub:    h,
		maxLag: h.opts.MaxLag,
		ring:   make([]*Frame, h.opts.RingDepth),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHubClosed
	}
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s, nil
}

// Close stops the encoder goroutine (if started) and closes every
// subscription: their pending Next calls return ErrClosed.
func (h *Hub) Close() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.mu.Lock()
	if h.started {
		started := h.runDone
		h.mu.Unlock()
		<-started
		h.mu.Lock()
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	clear(h.subs)
	h.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		s.closeLocked(false)
		s.mu.Unlock()
	}
}

// Encodes counts frames actually serialized — the benchmark's self-gate for
// the one-encode-per-round contract.
func (h *Hub) Encodes() uint64 { return h.encodes.Load() }

// Rounds counts Notify signals received (≥ Encodes under coalescing).
func (h *Hub) Rounds() uint64 { return h.rounds.Load() }

// Dropped counts rounds lost to latest-wins coalescing across all
// subscribers; Shed counts subscribers cut loose for sustained lag.
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Shed counts subscribers the hub has cut loose.
func (h *Hub) Shed() uint64 { return h.shed.Load() }

// Subscribers is the current watcher count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return n
}

// Subscription is one watcher's view of the hub: a small latest-wins ring of
// shared frames. Next blocks for the next buffered round; a consumer that
// cannot keep up loses oldest rounds first and — after MaxLag consecutive
// losses — the subscription itself.
type Subscription struct {
	hub    *Hub
	maxLag int
	notify chan struct{}
	done   chan struct{}

	mu     sync.Mutex
	ring   []*Frame
	head   int
	count  int
	lag    int // consecutive rounds dropped since the last successful read
	drops  uint64
	shed   bool
	closed bool
}

// push hands the subscriber a retained frame reference. It reports whether
// the push shed the subscriber (the caller then unregisters it).
func (s *Subscription) push(f *Frame) (shedNow bool) {
	s.mu.Lock()
	if s.closed || s.shed {
		s.mu.Unlock()
		f.Release()
		return false
	}
	if s.count == len(s.ring) {
		// Latest-wins: the oldest buffered round makes room for the newest.
		old := s.ring[s.head]
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.drops++
		s.lag++
		s.hub.dropped.Add(1)
		old.Release()
		if s.maxLag >= 0 && s.lag >= s.maxLag {
			s.closeLocked(true)
			s.mu.Unlock()
			f.Release()
			return true
		}
	}
	s.ring[(s.head+s.count)%len(s.ring)] = f
	s.count++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return false
}

// closeLocked finalizes the subscription (s.mu held): drains and releases
// buffered frames and wakes any blocked Next.
func (s *Subscription) closeLocked(shed bool) {
	if s.closed || s.shed {
		if !shed {
			s.closed = true
		}
		return
	}
	if shed {
		s.shed = true
	} else {
		s.closed = true
	}
	for s.count > 0 {
		f := s.ring[s.head]
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		f.Release()
	}
	close(s.done)
}

// TryNext pops the oldest buffered frame, or nil when the ring is empty. The
// caller owns the returned frame's reference and must Release it.
func (s *Subscription) TryNext() *Frame {
	s.mu.Lock()
	if s.count == 0 {
		s.mu.Unlock()
		return nil
	}
	f := s.ring[s.head]
	s.ring[s.head] = nil
	s.head = (s.head + 1) % len(s.ring)
	s.count--
	s.lag = 0 // a draining consumer is not a wedged one
	s.mu.Unlock()
	return f
}

// Next blocks until a frame is buffered, the subscription ends, or ctx is
// done. The caller must Release the returned frame.
func (s *Subscription) Next(ctx context.Context) (*Frame, error) {
	for {
		if f := s.TryNext(); f != nil {
			return f, nil
		}
		if err := s.Err(); err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.done:
		case <-s.notify:
		}
	}
}

// Err reports why the subscription ended (ErrShed or ErrClosed), or nil
// while it is live.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.shed:
		return ErrShed
	case s.closed:
		return ErrClosed
	}
	return nil
}

// Dropped counts rounds this subscription lost to latest-wins coalescing.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drops
}

// Close unregisters the subscription and releases its buffered frames.
// Safe to call multiple times and after a shed.
func (s *Subscription) Close() {
	s.hub.mu.Lock()
	delete(s.hub.subs, s)
	s.hub.mu.Unlock()
	s.mu.Lock()
	s.closeLocked(false)
	s.mu.Unlock()
}
