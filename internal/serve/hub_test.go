package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/engine"
)

// stubSource is a deterministic VerdictSource: each VerdictInto stamps an
// incrementing score so frames are distinguishable, reusing the caller's
// Links slice like the real engine does.
type stubSource struct {
	mu    sync.Mutex
	calls uint64
	err   error
}

func (s *stubSource) VerdictInto(v *engine.SiteVerdict) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.calls++
	links := v.Links[:0]
	links = append(links, engine.LinkDecision{
		LinkID:   "l0",
		Decision: core.Decision{Present: true, Score: float64(s.calls), Threshold: 0.5},
		Weight:   1,
		Health:   adapt.Health{State: adapt.StateHealthy},
	})
	*v = engine.SiteVerdict{
		Present:  true,
		Score:    float64(s.calls),
		Positive: 1,
		Total:    1,
		Policy:   "1-of-n",
		Links:    links,
		Coverage: engine.Coverage{Links: 1, Fused: 1},
	}
	return nil
}

func TestHubPublishAndNext(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{})
	defer h.Close()
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PublishRound(); err != nil {
		t.Fatal(err)
	}
	f, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f.Round() != 1 {
		t.Fatalf("round = %d, want 1", f.Round())
	}
	wire := string(f.Bytes())
	if wantPrefix := "event: verdict\nid: 1\ndata: {"; len(wire) < len(wantPrefix) || wire[:len(wantPrefix)] != wantPrefix {
		t.Fatalf("frame = %q, want prefix %q", wire, wantPrefix)
	}
	if wire[len(wire)-2:] != "\n\n" {
		t.Fatalf("frame does not end with blank line: %q", wire)
	}
	js := strings.TrimSuffix(wire[strings.Index(wire, "data: ")+len("data: "):], "\n\n")
	if js[0] != '{' || js[len(js)-1] != '}' {
		t.Fatalf("JSON view = %q, want a bare object", js)
	}
	f.Release()
}

// TestHubEncodeOnce pins the core contract: one serialization per round no
// matter how many subscribers receive it.
func TestHubEncodeOnce(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{MaxLag: -1})
	defer h.Close()
	const subs = 50
	for i := 0; i < subs; i++ {
		if _, err := h.Subscribe(); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := h.PublishRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Encodes(); got != rounds {
		t.Fatalf("encodes = %d, want %d (one per round for %d subscribers)", got, rounds, subs)
	}
	src.mu.Lock()
	calls := src.calls
	src.mu.Unlock()
	if calls != rounds {
		t.Fatalf("verdict reads = %d, want %d", calls, rounds)
	}
}

// TestHubLatestWins checks the per-subscriber ring drops oldest rounds and a
// draining reader always ends on the newest.
func TestHubLatestWins(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{RingDepth: 2, MaxLag: -1})
	defer h.Close()
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := h.PublishRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Ring depth 2 over 7 rounds: rounds 1..5 dropped, 6 and 7 buffered.
	f := sub.TryNext()
	if f == nil || f.Round() != 6 {
		t.Fatalf("first buffered round = %v, want 6", f)
	}
	f.Release()
	f = sub.TryNext()
	if f == nil || f.Round() != 7 {
		t.Fatalf("second buffered round = %v, want 7", f)
	}
	f.Release()
	if f = sub.TryNext(); f != nil {
		t.Fatalf("ring should be empty, got round %d", f.Round())
	}
	if got := sub.Dropped(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
}

// TestHubShedsStalledSubscriber checks a subscriber that never drains is cut
// loose after MaxLag consecutive drops, while a sibling keeps receiving, and
// that a drained read resets the lag (the slow-drip survivor).
func TestHubShedsStalledSubscriber(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{RingDepth: 2, MaxLag: 3})
	defer h.Close()
	stalled, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	drip, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 1,2 fill both rings; rounds 3,4,5 drop one old round each from
	// the stalled ring — the third consecutive drop sheds it. The drip
	// subscriber drains one frame per round, so its lag never reaches 2.
	for i := 0; i < 8; i++ {
		if err := h.PublishRound(); err != nil {
			t.Fatal(err)
		}
		if f := drip.TryNext(); f != nil {
			f.Release()
		}
	}
	if got := h.Shed(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if got := h.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d, want the drip survivor only", got)
	}
	if _, err := stalled.Next(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("stalled Next error = %v, want ErrShed", err)
	}
	if err := drip.Err(); err != nil {
		t.Fatalf("drip subscriber error = %v, want live", err)
	}
}

// TestHubNotifyCoalesces runs the background encoder and checks a burst of
// notifies collapses to at most a few encodes while the final state is
// always delivered.
func TestHubNotifyCoalesces(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{})
	h.Start()
	defer h.Close()
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	const burst = 1000
	for i := 0; i < burst; i++ {
		h.Notify()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The encoder must eventually publish a frame reflecting the burst; with
	// coalescing the number of encodes stays far below the notify count.
	f, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	deadline := time.Now().Add(5 * time.Second)
	for h.Rounds() != burst {
		if time.Now().After(deadline) {
			t.Fatalf("rounds = %d, want %d", h.Rounds(), burst)
		}
		time.Sleep(time.Millisecond)
	}
	// Idle-drain: wait for the encoder to catch up with the counter, then
	// compare. The encoder observes the counter at least once after the last
	// Notify, so encodes is bounded by the number of wakeups, not the burst.
	time.Sleep(50 * time.Millisecond)
	if enc := h.Encodes(); enc == 0 || enc > burst/2 {
		t.Fatalf("encodes = %d for %d notifies, want coalescing well below the burst", enc, burst)
	}
}

// TestHubFrameRecycling checks released frames return to the freelist and
// steady-state publishing stops growing memory: after warm-up, the same
// Frame pointers cycle.
func TestHubFrameRecycling(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{RingDepth: 2, MaxLag: -1})
	defer h.Close()
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*Frame]bool{}
	for i := 0; i < 100; i++ {
		if err := h.PublishRound(); err != nil {
			t.Fatal(err)
		}
		f := sub.TryNext()
		if f == nil {
			t.Fatal("expected a frame")
		}
		seen[f] = true
		f.Release()
	}
	// One frame in flight at a time → the pool should cycle one or two
	// Frame allocations, not one per round.
	if len(seen) > 4 {
		t.Fatalf("publishing cycled %d distinct frames over 100 rounds, want a recycled handful", len(seen))
	}
}

// TestHubSubscribeAfterClose and closed-hub semantics.
func TestHubClose(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{})
	h.Start()
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sub.Next(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	h.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on hub Close")
	}
	if _, err := h.Subscribe(); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("Subscribe on closed hub = %v, want ErrHubClosed", err)
	}
}

// TestHubConcurrentChurn runs publishers, subscribers and closers together
// under the race detector.
func TestHubConcurrentChurn(t *testing.T) {
	src := &stubSource{}
	h := NewHub(src, HubOptions{RingDepth: 2, MaxLag: 8})
	h.Start()
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var delivered atomic.Uint64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				sub, err := h.Subscribe()
				if err != nil {
					return
				}
				if idx%2 == 0 {
					// Reader: drain a frame or two, then leave.
					short, cancel2 := context.WithTimeout(ctx, 20*time.Millisecond)
					if f, err := sub.Next(short); err == nil {
						delivered.Add(1)
						f.Release()
					}
					cancel2()
				}
				sub.Close()
			}
		}(i)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Notify()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	if delivered.Load() == 0 {
		t.Fatal("no reader ever received a frame")
	}
}
