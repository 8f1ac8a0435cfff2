package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// trackedSource is a pooling extractor source that records frame checkout
// state: Next must never hand out a frame that is still in use, and Recycle
// must only receive frames that are. Run under -race (as CI does) it also
// exercises the assembler/worker concurrency of the recycle path.
type trackedSource struct {
	x *csi.Extractor

	mu         sync.Mutex
	free       []*csi.Frame
	inUse      map[*csi.Frame]bool
	violations atomic.Int64
}

func newTrackedSource(t *testing.T, caseN int, seed int64) (*trackedSource, core.Config) {
	t.Helper()
	s, err := scenario.LinkCase(caseN, seed)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	return &trackedSource{x: x, inUse: make(map[*csi.Frame]bool)}, cfg
}

func (s *trackedSource) Next() (*csi.Frame, error) {
	s.mu.Lock()
	var f *csi.Frame
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		f = csi.NewFrame(len(s.x.Env.RX.Elements), s.x.Grid.Len())
	}
	if s.inUse[f] {
		s.violations.Add(1)
	}
	s.inUse[f] = true
	s.mu.Unlock()
	if err := s.x.CaptureInto(f, nil); err != nil {
		return nil, err
	}
	return f, nil
}

func (s *trackedSource) Recycle(f *csi.Frame) {
	s.mu.Lock()
	if !s.inUse[f] {
		s.violations.Add(1)
	} else {
		delete(s.inUse, f)
		s.free = append(s.free, f)
	}
	s.mu.Unlock()
}

// TestEnginePooledFramesNeverAliased runs a multi-link fleet on pooled
// frames across a pool of scoring workers and asserts no frame is ever
// checked out twice concurrently or recycled twice — i.e. the engine's
// recycle-after-score protocol never aliases pooled frames across workers —
// and that every frame comes back, calibration frames included.
func TestEnginePooledFramesNeverAliased(t *testing.T) {
	const links = 3
	e := New(Config{Workers: 4, WindowSize: 25, Fusion: KOfN{K: 1}})
	sources := make([]*trackedSource, 0, links)
	for i := 0; i < links; i++ {
		src, cfg := newTrackedSource(t, 1+i, 7)
		sources = append(sources, src)
		if err := e.AddLink(fmt.Sprintf("l%d", i), cfg, src); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 75); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, 12); err != nil {
		t.Fatal(err)
	}
	for i, src := range sources {
		if v := src.violations.Load(); v != 0 {
			t.Fatalf("link %d: %d frame aliasing violations", i, v)
		}
		src.mu.Lock()
		outstanding := len(src.inUse)
		src.mu.Unlock()
		if outstanding != 0 {
			t.Fatalf("link %d: %d frames never recycled", i, outstanding)
		}
	}
	if scored := e.Metrics().WindowsScored; scored != links*12 {
		t.Fatalf("windows scored = %d, want %d", scored, links*12)
	}
}
