package adapt

import (
	"math"
	"testing"

	"mlink/internal/core"
)

// TestAtomicHealthRoundTrip pins the single pack/unpack implementation: every
// Health field must survive a Store/Load cycle, so that a field added to
// Health cannot silently vanish from the lock-free publication path.
func TestAtomicHealthRoundTrip(t *testing.T) {
	in := Health{
		State:              StateDrifting,
		DriftZ:             -3.25,
		ScoreZ:             7.5,
		JumpExceeded:       true,
		ProfileShiftDB:     1.75,
		ShiftRateDB:        -0.125,
		Refreshes:          42,
		ThresholdUpdates:   7,
		Relocks:            3,
		Threshold:          2.5,
		NeedsRecalibration: true,
		RefreshSuppressed:  true,
	}
	var a AtomicHealth
	a.Store(in)
	if out := a.Load(); out != in {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestAdapterSuppressedRefresh: with refreshes suppressed, silent windows
// must leave the profile untouched, and the suppression must be visible in
// the published health; lifting it resumes refreshes.
func TestAdapterSuppressedRefresh(t *testing.T) {
	h := newHarness(t, 61)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	a.SetRefreshSuppressed(true)
	var health Health
	for i := 0; i < 8; i++ {
		health = h.observe(t, a)
	}
	if health.Refreshes != 0 {
		t.Fatalf("suppressed adapter refreshed %d times", health.Refreshes)
	}
	if !health.RefreshSuppressed {
		t.Fatal("suppression not visible in health")
	}
	a.SetRefreshSuppressed(false)
	for i := 0; i < 8; i++ {
		health = h.observe(t, a)
	}
	if health.Refreshes == 0 {
		t.Fatal("no refreshes after suppression lifted")
	}
	if health.RefreshSuppressed {
		t.Fatal("suppression still reported after being lifted")
	}
}

// TestAdapterRelockClearsQuarantine: a step change latches the quarantine;
// a fleet relock must clear it, adopt the current level as the baseline, and
// leave the adapter scoring quietly (the post-relock windows score near
// zero against the adopted profile).
func TestAdapterRelockClearsQuarantine(t *testing.T) {
	h := newHarness(t, 63)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		h.observe(t, a)
	}
	// A gain step big enough to latch the drift monitor critical: scale
	// every captured window before scoring, as a receiver re-lock would.
	stepWindow := func() Health {
		window := h.x.CaptureN(25, nil)
		for _, f := range window {
			for ant := range f.CSI {
				for k := range f.CSI[ant] {
					f.CSI[ant][k] *= 4 // +12 dB
				}
			}
		}
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
	var health Health
	for i := 0; i < 8; i++ {
		health = stepWindow()
	}
	if !health.NeedsRecalibration {
		t.Fatalf("12 dB step did not quarantine: %+v", health)
	}
	relocksBefore := health.Relocks

	a.RequestRelock()
	health = stepWindow() // relock adopts this stepped window as the baseline
	if health.NeedsRecalibration {
		t.Fatalf("relock left NeedsRecalibration set: %+v", health)
	}
	if health.Relocks != relocksBefore+1 {
		t.Fatalf("relock count %d, want %d", health.Relocks, relocksBefore+1)
	}
	// Post-relock, stepped windows ARE the baseline: scores must sit far
	// below the (unchanged) threshold again.
	window := h.x.CaptureN(25, nil)
	for _, f := range window {
		for ant := range f.CSI {
			for k := range f.CSI[ant] {
				f.CSI[ant][k] *= 4
			}
		}
	}
	dec, err := h.det.DetectScratch(window, h.sc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Present {
		t.Fatalf("stepped window still alarms after relock: score %v thr %v", dec.Score, dec.Threshold)
	}
}

// TestAdapterPersistRoundTrip: an adapter serialized mid-stream and restored
// must score and adapt identically to the original from that point on.
func TestAdapterPersistRoundTrip(t *testing.T) {
	h := newHarness(t, 65)
	a, err := NewAdapter(Policy{}, h.det, h.null)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.observe(t, a)
	}

	blob, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, det2, err := Restore(h.cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Health(), a.Health(); got != want {
		t.Fatalf("restored health %+v != original %+v", got, want)
	}
	if got, want := det2.Threshold(), h.det.Threshold(); got != want {
		t.Fatalf("restored threshold %v != %v", got, want)
	}

	// Feed both adapters the same future windows: decisions and health must
	// track exactly (1e-9 is the acceptance bound; in practice the paths
	// are bit-identical).
	sc2 := core.NewScratch()
	for i := 0; i < 12; i++ {
		window := h.x.CaptureN(25, nil)
		decA, err := h.det.DetectScratch(window, h.sc)
		if err != nil {
			t.Fatal(err)
		}
		decB, err := det2.DetectScratch(window, sc2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(decA.Score-decB.Score) > 1e-9 || decA.Present != decB.Present {
			t.Fatalf("window %d diverged: original %+v restored %+v", i, decA, decB)
		}
		ha, err := a.Observe(window, decA)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Observe(window, decB)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ha.DriftZ-hb.DriftZ) > 1e-9 || ha.Refreshes != hb.Refreshes ||
			ha.ThresholdUpdates != hb.ThresholdUpdates || ha.State != hb.State {
			t.Fatalf("window %d health diverged:\n orig %+v\n rest %+v", i, ha, hb)
		}
	}
	if a.Health().Refreshes == 0 {
		t.Fatal("no refreshes — the round trip proved nothing")
	}

	// Corrupt snapshots must be rejected, not misread.
	if _, _, err := Restore(h.cfg, blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	if _, _, err := Restore(h.cfg, append([]byte{0}, blob...)); err == nil {
		t.Fatal("garbage snapshot restored")
	}
}
