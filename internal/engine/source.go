package engine

import (
	"io"

	"mlink/internal/csi"
)

// Source is a link's frame stream. Next returns io.EOF to end the stream
// cleanly. The engine always calls Next from one goroutine at a time, so a
// Source need not be safe for concurrent use.
type Source interface {
	Next() (*csi.Frame, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (*csi.Frame, error)

// Next calls the function.
func (f SourceFunc) Next() (*csi.Frame, error) { return f() }

// FrameRecycler is implemented by sources whose frames the engine should
// hand back once a window has been scored. Recycle may be called from a
// scoring worker concurrently with Next, so implementations must be safe for
// that pairing.
type FrameRecycler interface {
	Recycle(*csi.Frame)
}

// ReplaySource replays pre-recorded frames, optionally looping forever: it
// feeds one recorded capture to several engines (the drift experiment's
// frozen and adaptive arms) and decouples scoring throughput from capture
// cost in benchmarks. It never recycles the frames; they stay the caller's.
type ReplaySource struct {
	frames []*csi.Frame
	next   int
	loop   bool
}

// NewReplaySource wraps recorded frames; loop cycles them indefinitely.
func NewReplaySource(frames []*csi.Frame, loop bool) *ReplaySource {
	return &ReplaySource{frames: frames, loop: loop}
}

// Next implements Source.
func (r *ReplaySource) Next() (*csi.Frame, error) {
	if len(r.frames) == 0 {
		return nil, io.EOF
	}
	if r.next >= len(r.frames) {
		if !r.loop {
			return nil, io.EOF
		}
		r.next = 0
	}
	f := r.frames[r.next]
	r.next++
	return f, nil
}
