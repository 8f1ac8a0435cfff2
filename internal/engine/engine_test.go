package engine

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/csinet"
	"mlink/internal/scenario"
	"mlink/internal/supervise"
)

// switchSource is an extractor source whose occupancy can be changed
// between engine phases (calibrate empty, then monitor with a person).
type switchSource struct {
	x      *csi.Extractor
	bodies []body.Body
}

func (s *switchSource) Next() (*csi.Frame, error) { return s.x.Capture(s.bodies), nil }

func buildLink(t testing.TB, caseN int, seed int64) (*scenario.Scenario, core.Config, *switchSource) {
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
	return s, cfg, &switchSource{x: x}
}

// TestEngineRoundTrip calibrates a two-link fleet in parallel, occupies one
// link, runs concurrent monitoring and checks decisions, fusion and the
// metrics block. Simulation and window assembly are deterministic per link,
// so the verdicts are reproducible regardless of pool scheduling.
func TestEngineRoundTrip(t *testing.T) {
	e := New(Config{Workers: 4, WindowSize: 25, Fusion: KOfN{K: 1}})

	// A frozen (non-adaptive) fleet over a short run. Receiver gain drift
	// is a first-class scenario now — scenario drift presets plus engine
	// adaptation, exercised by TestEngineAdaptationBoundsDriftFalsePositives
	// below — so this round-trip only checks the frozen pipeline.
	s1, cfg1, src1 := buildLink(t, 2, 7)
	_, cfg2, src2 := buildLink(t, 3, 5)
	if err := e.AddLink("occupied", cfg1, src1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddLink("empty", cfg2, src2); err != nil {
		t.Fatal(err)
	}
	if got := e.Links(); len(got) != 2 || got[0] != "occupied" || got[1] != "empty" {
		t.Fatalf("Links() = %v", got)
	}

	if err := e.Calibrate(context.Background(), 150); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	for _, lm := range m.PerLink {
		if !lm.Calibrated {
			t.Fatalf("link %s not calibrated after Calibrate", lm.ID)
		}
		if lm.Threshold <= 0 {
			t.Fatalf("link %s threshold = %v, want > 0", lm.ID, lm.Threshold)
		}
		if lm.MeanMu <= 0 {
			t.Fatalf("link %s mean mu = %v, want > 0", lm.ID, lm.MeanMu)
		}
	}

	// A person steps onto link 1's LOS midpoint; link 2 stays empty.
	src1.bodies = []body.Body{body.Default(s1.LinkMidpoint())}

	const windows = 4
	if err := e.Run(context.Background(), windows); err != nil {
		t.Fatal(err)
	}

	m = e.Metrics()
	if m.WindowsScored != 2*windows {
		t.Fatalf("windows scored = %d, want %d", m.WindowsScored, 2*windows)
	}
	if m.ScoresPerSec <= 0 {
		t.Fatalf("scores/sec = %v, want > 0", m.ScoresPerSec)
	}
	var occ, emp LinkMetrics
	for _, lm := range m.PerLink {
		switch lm.ID {
		case "occupied":
			occ = lm
		case "empty":
			emp = lm
		}
	}
	if occ.WindowsScored != windows || emp.WindowsScored != windows {
		t.Fatalf("per-link windows = %d/%d, want %d each", occ.WindowsScored, emp.WindowsScored, windows)
	}
	if !occ.Present {
		t.Errorf("occupied link not detected (last score %v vs threshold %v)", occ.LastScore, occ.Threshold)
	}
	if emp.Present {
		t.Errorf("empty link false positive (last score %v vs threshold %v)", emp.LastScore, emp.Threshold)
	}
	if occ.MeanScore <= emp.MeanScore {
		t.Errorf("occupied mean score %v not above empty mean score %v", occ.MeanScore, emp.MeanScore)
	}

	v, err := e.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Present || v.Positive != 1 || v.Total != 2 {
		t.Fatalf("site verdict = %+v, want present with 1/2 positive", v)
	}
}

func TestEngineFleetErrors(t *testing.T) {
	e := New(Config{WindowSize: 25})
	if err := e.Calibrate(context.Background(), 100); !errors.Is(err, ErrNoLinks) {
		t.Fatalf("Calibrate on empty fleet: %v, want ErrNoLinks", err)
	}
	if _, err := e.Verdict(); !errors.Is(err, ErrNoLinks) {
		t.Fatalf("Verdict on empty fleet: %v, want ErrNoLinks", err)
	}
	if err := e.Run(context.Background(), 1); !errors.Is(err, ErrNoLinks) {
		t.Fatalf("Run on empty fleet: %v, want ErrNoLinks", err)
	}

	_, cfg, src := buildLink(t, 1, 3)
	if err := e.AddLink("a", cfg, src); err != nil {
		t.Fatal(err)
	}
	if err := e.AddLink("a", cfg, src); !errors.Is(err, ErrDuplicateLink) {
		t.Fatalf("duplicate AddLink: %v, want ErrDuplicateLink", err)
	}
	if err := e.Run(context.Background(), 1); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("Run before Calibrate: %v, want ErrNotCalibrated", err)
	}
	if _, err := e.Verdict(); !errors.Is(err, ErrNoDecisions) {
		t.Fatalf("Verdict before any window: %v, want ErrNoDecisions", err)
	}
	if _, err := e.ScoreWindow("missing", nil); !errors.Is(err, ErrUnknownLink) {
		t.Fatalf("ScoreWindow on unknown link: %v, want ErrUnknownLink", err)
	}
}

// TestEngineAdaptationBoundsDriftFalsePositives runs the drift scenario the
// seed comments used to warn about — a receiver whose gain walks during
// monitoring (seed 11 was the PR 1 caveat seed, plus an explicit gain-walk
// preset on top) — through the engine twice: frozen and adaptive. The
// frozen fleet false-alarms on most empty-room windows; adaptation keeps
// the false-positive rate bounded and the link healthy.
func TestEngineAdaptationBoundsDriftFalsePositives(t *testing.T) {
	const windows = 60 // the experiment's 10× calibration-length horizon
	run := func(adaptive bool) (falsePositives int, m Metrics) {
		s, err := scenario.LinkCase(2, 11)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := s.NewDriftStream(scenario.GainWalk(12), 1)
		if err != nil {
			t.Fatal(err)
		}
		var fp atomic.Int64
		cfg := Config{
			Workers:    2,
			WindowSize: 25,
			OnDecision: func(_ string, d core.Decision) {
				if d.Present {
					fp.Add(1)
				}
			},
		}
		if adaptive {
			cfg.Adaptation = &adapt.Policy{}
		}
		e := New(cfg)
		detCfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink("drifting", detCfg, stream); err != nil {
			t.Fatal(err)
		}
		if err := e.Calibrate(context.Background(), 150); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(context.Background(), windows); err != nil {
			t.Fatal(err)
		}
		return int(fp.Load()), e.Metrics()
	}

	frozenFP, _ := run(false)
	adaptiveFP, m := run(true)
	t.Logf("gain-walk seed 11 over %d windows: frozen %d false positives, adaptive %d", windows, frozenFP, adaptiveFP)
	if frozenFP <= windows/5 {
		t.Fatalf("frozen fleet FPs = %d/%d — drift too gentle to demonstrate adaptation", frozenFP, windows)
	}
	if adaptiveFP*2 >= frozenFP {
		t.Errorf("adaptation did not measurably bound FPs: %d vs frozen %d", adaptiveFP, frozenFP)
	}
	if adaptiveFP > windows/3 {
		t.Errorf("adaptive FPs = %d/%d, want ≤ 1/3", adaptiveFP, windows)
	}
	lm := m.PerLink[0]
	if !lm.Adaptive {
		t.Fatal("link metrics not marked adaptive")
	}
	if lm.Health.Refreshes == 0 {
		t.Error("adaptive link never refreshed its profile")
	}
	if lm.Health.State == adapt.StateQuarantined {
		t.Errorf("gradual gain walk quarantined the link: %+v", lm.Health)
	}
}

// TestEngineRunEndsOnEOF checks a finite replay stream ends Run cleanly and
// scores only the complete windows.
func TestEngineRunEndsOnEOF(t *testing.T) {
	s, err := scenario.Classroom(5)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(s.Grid, core.SchemeBaseline, s.Env.RX.Offsets())
	// 100 calibration + 100 holdout + 2.5 windows of 10.
	frames := x.CaptureN(225, nil)
	e := New(Config{Workers: 2, WindowSize: 10})
	if err := e.AddLink("replay", cfg, NewReplaySource(frames, false)); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().WindowsScored; got != 2 {
		t.Fatalf("windows scored = %d, want 2 (25 leftover frames, 2 full windows)", got)
	}
}

// TestEngineCancel checks Run returns promptly when the context is
// cancelled mid-stream.
func TestEngineCancel(t *testing.T) {
	_, cfg, src := buildLink(t, 2, 9)
	e := New(Config{Workers: 2, WindowSize: 25})
	if err := e.AddLink("a", cfg, src); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, 0) }()
	time.Sleep(50 * time.Millisecond)
	// While monitoring is live, fleet mutation and recalibration must be
	// rejected: both would race on link state and the single-reader source.
	if err := e.Calibrate(ctx, 100); !errors.Is(err, ErrRunning) {
		t.Errorf("Calibrate during Run: %v, want ErrRunning", err)
	}
	if err := e.AddLink("b", cfg, src); !errors.Is(err, ErrRunning) {
		t.Errorf("AddLink during Run: %v, want ErrRunning", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// serveCSINet streams s's empty room from a csinet server on a loopback
// port, one extractor per connection. Each connection ends cleanly after
// perConn frames (0: never).
func serveCSINet(t *testing.T, s *scenario.Scenario, perConn int) *csinet.Server {
	t.Helper()
	var (
		mu     sync.Mutex
		nConns int64
	)
	factory := func() csinet.Source {
		// Connections are served concurrently, and NewExtractor prepares
		// the shared environment's grid cache, which must not race.
		mu.Lock()
		nConns++
		x, err := s.NewExtractor(100 + nConns)
		mu.Unlock()
		if err != nil {
			return csinet.SourceFunc(func() (*csi.Frame, error) { return nil, io.EOF })
		}
		sent := 0
		return csinet.SourceFunc(func() (*csi.Frame, error) {
			if perConn > 0 && sent == perConn {
				return nil, io.EOF
			}
			sent++
			return x.Capture(nil), nil
		})
	}
	idx := make([]int16, len(s.Grid.Indices))
	for i, v := range s.Grid.Indices {
		idx[i] = int16(v)
	}
	hello := csinet.Hello{
		CenterFreqHz:   s.Grid.Center,
		NumAntennas:    3,
		NumSubcarriers: uint8(len(idx)),
		Indices:        idx,
	}
	srv, err := csinet.NewServer("127.0.0.1:0", hello, factory)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background()) //nolint:errcheck — ends on Close
	t.Cleanup(func() { srv.Close() })
	return srv
}

// redial connects a Redialer to srv.
func redial(t *testing.T, srv *csinet.Server) *csinet.Redialer {
	t.Helper()
	r := csinet.Redial(srv.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestEngineStreamsFromCSINet runs the distributed deployment under -race:
// a csinet server streams simulated CSI over TCP into two engine links that
// calibrate and score concurrently.
func TestEngineStreamsFromCSINet(t *testing.T) {
	s, err := scenario.Classroom(21)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveCSINet(t, s, 0)
	e := New(Config{Workers: 4, WindowSize: 10, Fusion: MaxScore{}})
	for _, id := range []string{"rx1", "rx2"} {
		cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
		if err := e.AddLink(id, cfg, redial(t, srv)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := e.Calibrate(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, 2); err != nil {
		t.Fatal(err)
	}
	v, err := e.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if v.Total != 2 {
		t.Fatalf("fused %d links, want 2", v.Total)
	}
	if v.Present {
		t.Errorf("empty rooms fused to present: %+v", v)
	}
	if got := e.Metrics().WindowsScored; got != 4 {
		t.Fatalf("windows scored = %d, want 4", got)
	}
}

// TestEngineRedialCleanCloseEndsLink: when the collector closes the stream
// cleanly, an unsupervised link over a Redialer ends like any source at
// io.EOF: the partial window is dropped and Run returns nil.
func TestEngineRedialCleanCloseEndsLink(t *testing.T) {
	s, err := scenario.Classroom(21)
	if err != nil {
		t.Fatal(err)
	}
	// 60 calibration plus 60 held-out frames, two 10-frame windows, and 5
	// frames of a third.
	srv := serveCSINet(t, s, 2*60+2*10+5)
	e := New(Config{Workers: 1, WindowSize: 10})
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	if err := e.AddLink("rx", cfg, redial(t, srv)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Calibrate(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, 0); err != nil {
		t.Fatalf("Run after a clean close = %v, want nil", err)
	}
	if ctx.Err() != nil {
		t.Fatal("Run ended by the test deadline, not by the stream's end")
	}
	if got := e.Metrics().WindowsScored; got != 2 {
		t.Fatalf("windows scored = %d, want 2", got)
	}
}

// TestEngineRedialSupervisedReconnects: under supervision the same clean
// close takes the link Down and the supervisor redials, so the link keeps
// scoring on the collector's next connection.
func TestEngineRedialSupervisedReconnects(t *testing.T) {
	s, err := scenario.Classroom(21)
	if err != nil {
		t.Fatal(err)
	}
	// Calibration takes 120 frames of the first connection, leaving three
	// windows; the run needs eight, so the rest come from a redial.
	srv := serveCSINet(t, s, 2*60+3*10)
	e := New(Config{Workers: 1, WindowSize: 10})
	if err := e.SetSupervision(&supervise.Policy{BackoffMin: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	if err := e.AddLink("rx", cfg, redial(t, srv)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Calibrate(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, 8); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.WindowsScored != 8 {
		t.Fatalf("windows scored = %d, want 8", m.WindowsScored)
	}
	if got := m.PerLink[0].Reconnects; got < 1 {
		t.Fatalf("reconnects = %d, want ≥ 1", got)
	}
}
