package adapt

import (
	"errors"
	"sync"
	"testing"

	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// harness builds a calibrated detector over the classroom link.
type harness struct {
	x    *csi.Extractor
	cfg  core.Config
	det  *core.Detector
	null []float64
	sc   *core.Scratch
}

func newHarness(t testing.TB, seed int64) *harness {
	t.Helper()
	s, err := scenario.Classroom(seed)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets())
	profile, err := core.Calibrate(cfg, x.CaptureN(150, nil))
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	null, err := det.SelfScores(x.CaptureN(150, nil), 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.CalibrateThreshold(null, 0.95, 1.3); err != nil {
		t.Fatal(err)
	}
	return &harness{x: x, cfg: cfg, det: det, null: null, sc: core.NewScratch()}
}

func (h *harness) observe(t testing.TB, a *Adapter) Health {
	t.Helper()
	window := h.x.CaptureN(25, nil)
	dec, err := h.det.DetectScratch(window, h.sc)
	if err != nil {
		t.Fatal(err)
	}
	health, err := a.Observe(window, dec)
	if err != nil {
		t.Fatal(err)
	}
	return health
}

func TestAdapterRefreshesOnSilentWindows(t *testing.T) {
	h := newHarness(t, 51)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	origProfile := h.det.Profile()
	var health Health
	for i := 0; i < 12; i++ {
		health = h.observe(t, a)
	}
	if health.Refreshes == 0 {
		t.Fatal("no profile refreshes over 12 empty windows")
	}
	if h.det.Profile() == origProfile {
		t.Fatal("detector still scoring against the calibration profile")
	}
	if health.State == StateQuarantined {
		t.Fatalf("quiet link quarantined: %+v", health)
	}
}

func TestAdapterRederivesThreshold(t *testing.T) {
	h := newHarness(t, 53)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	var health Health
	for i := 0; i < 20; i++ {
		health = h.observe(t, a)
	}
	if health.ThresholdUpdates == 0 {
		t.Fatalf("no threshold re-derivations after %d refreshes", health.Refreshes)
	}
	if h.det.Threshold() <= 0 {
		t.Fatalf("threshold collapsed to %v", h.det.Threshold())
	}
	// The floor: the online threshold can never fall below
	// minThresholdFactor × the calibration threshold.
	if h.det.Threshold() < 0.5*health.Threshold/2 {
		t.Fatalf("threshold %v below floor", h.det.Threshold())
	}
}

func TestAdapterValidation(t *testing.T) {
	h := newHarness(t, 57)
	if _, err := NewAdapter(Policy{}, nil, h.null); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("nil detector err = %v", err)
	}
	if _, err := NewAdapter(Policy{}, h.det, []float64{1}); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("tiny null seed err = %v", err)
	}
}

// TestAdapterConcurrentHealthReaders runs the single-writer Observe loop
// (the contract: exactly one goroutine — the link's owning shard — observes)
// while several goroutines hammer the lock-free Health snapshots; under
// -race this validates the atomic seqlock publication, and the readers
// assert every snapshot is internally consistent (monotonic refresh counts).
func TestAdapterConcurrentHealthReaders(t *testing.T) {
	h := newHarness(t, 59)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-capture windows and decisions serially (the extractor is not
	// concurrent-safe); the observer then feeds them in stream order.
	type job struct {
		window []*csi.Frame
		dec    core.Decision
	}
	jobs := make([]job, 16)
	for i := range jobs {
		w := h.x.CaptureN(25, nil)
		dec, err := h.det.DetectScratch(w, h.sc)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{window: w, dec: dec}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastRefreshes uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				hs := a.Health()
				if hs.Refreshes < lastRefreshes {
					t.Errorf("refresh count went backwards: %d after %d", hs.Refreshes, lastRefreshes)
					return
				}
				lastRefreshes = hs.Refreshes
			}
		}()
	}
	for _, j := range jobs {
		if _, err := a.Observe(j.window, j.dec); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if a.Health().Refreshes == 0 {
		t.Fatal("no refreshes from the observer loop")
	}
}
