package mlink

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"mlink/internal/serve"
)

// Serving-plane types, re-exported from the internal serve package so facade
// users can stream verdicts without reaching into internal packages.
type (
	// VerdictSubscription is one watcher's handle on the engine's verdict
	// stream: Next blocks for the newest frame, TryNext polls, Close
	// unsubscribes. A subscriber that stops draining coalesces to the
	// latest round and is eventually shed; the engine never blocks on it.
	VerdictSubscription = serve.Subscription
	// VerdictFrame is one fused round encoded once for every subscriber:
	// Bytes is the complete SSE frame, JSON the bare verdict document.
	// Release it after use so the hub can recycle the buffer.
	VerdictFrame = serve.Frame
)

// Re-exported streaming errors.
var (
	// ErrStreamShed reports a subscription the hub dropped for falling too
	// far behind.
	ErrStreamShed = serve.ErrShed
	// ErrStreamClosed reports a subscription closed by Close or engine
	// shutdown.
	ErrStreamClosed = serve.ErrClosed
)

// streamHub lazily builds and starts the engine's broadcast hub: one
// encoder goroutine serializes each fused round exactly once and fans the
// shared frame out to every subscriber.
func (e *Engine) streamHub() *serve.Hub {
	e.hubOnce.Do(func() {
		h := serve.NewHub(e, serve.HubOptions{})
		h.Start()
		e.hub.Store(h)
	})
	return e.hub.Load()
}

// Subscribe attaches a verdict-stream watcher: every fused round is encoded
// once and delivered as a shared VerdictFrame. Slow watchers coalesce to the
// newest round; a watcher that stops draining entirely is shed
// (ErrStreamShed). The first Subscribe starts the stream hub.
func (e *Engine) Subscribe() (*VerdictSubscription, error) {
	sub, err := e.streamHub().Subscribe()
	if err != nil {
		return nil, fmt.Errorf("mlink subscribe: %w", err)
	}
	return sub, nil
}

// CloseStream shuts the verdict stream down: every subscription is closed
// (Next returns ErrStreamClosed) and frame buffers are released. A no-op if
// no stream was ever started. The engine itself keeps running.
func (e *Engine) CloseStream() {
	if h := e.hub.Load(); h != nil {
		h.Close()
	}
}

// ServeOptions tunes the HTTP serving plane.
type ServeOptions struct {
	// Logf, when non-nil, receives one line per request from the tracing
	// middleware (trace ID, method, path, status, duration).
	Logf func(format string, args ...any)
	// WriteTimeout bounds each SSE frame write; a subscriber that cannot
	// accept a frame within it is disconnected (0 = 10s).
	WriteTimeout time.Duration
}

// Handler returns the engine's HTTP API: GET /v1/verdict (fused site
// verdict, inconclusive served as a first-class document), GET /v1/links
// (per-link metrics), GET /metrics (Prometheus text) and GET /v1/stream
// (SSE verdict subscriptions, encoded once per round for all watchers).
// JSON endpoints are gzip-compressed on request and every response carries
// an X-Trace-Id header.
func (e *Engine) Handler(opts ...ServeOptions) http.Handler {
	var o ServeOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return serve.NewServer(e, serve.Options{
		Hub:          e.streamHub(),
		Logf:         o.Logf,
		WriteTimeout: o.WriteTimeout,
	}).Handler()
}

// Serve runs the engine's HTTP API on addr until ctx is cancelled, then
// drains gracefully: in-flight requests finish, SSE subscribers are closed.
// Run the engine itself in another goroutine; Serve only serves.
func Serve(ctx context.Context, e *Engine, addr string, opts ...ServeOptions) error {
	if err := serve.ListenAndServe(ctx, addr, e.Handler(opts...)); err != nil {
		return fmt.Errorf("mlink serve: %w", err)
	}
	return nil
}
