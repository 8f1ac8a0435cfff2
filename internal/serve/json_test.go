package serve

import (
	"encoding/json"
	"math"
	"testing"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/engine"
)

// TestAppendVerdictGolden parses the hand-rolled encoder's output with
// encoding/json and checks every field round-trips, including the
// inconclusive/coverage block, the round id and non-finite score handling.
func TestAppendVerdictGolden(t *testing.T) {
	v := engine.SiteVerdict{
		Round:    42,
		Present:  true,
		Score:    0.625,
		Positive: 2,
		Total:    3,
		Policy:   `weird"policy\name`,
		Coverage: engine.Coverage{Links: 5, Fused: 3, Live: 2, Stale: 1, Down: 1, Recovering: 1, Recalibrating: 1},
		Links: []engine.LinkDecision{
			{
				LinkID:   "north\twing",
				Decision: core.Decision{Present: true, Score: 1.25, Threshold: 0.5},
				Weight:   0.75,
				Health: adapt.Health{
					State: adapt.StateDrifting, DriftZ: -2.5, ScoreZ: 1.5, JumpExceeded: true,
					ProfileShiftDB: 3.5, ShiftRateDB: 0.25, Refreshes: 7, ThresholdUpdates: 3,
					Relocks: 1, Threshold: 0.5, NeedsRecalibration: true, RefreshSuppressed: true,
					Lifecycle: adapt.LifecycleStale,
				},
			},
			{LinkID: "l1", Decision: core.Decision{Score: math.NaN(), Threshold: math.Inf(1)}},
		},
	}
	var doc struct {
		Round        uint64  `json:"round"`
		Present      bool    `json:"present"`
		Inconclusive bool    `json:"inconclusive"`
		Score        float64 `json:"score"`
		Positive     int     `json:"positive"`
		Total        int     `json:"total"`
		Policy       string  `json:"policy"`
		Coverage     struct {
			Links, Fused, Live, Stale, Down, Recovering, Recalibrating int
			Degraded                                                   bool
		} `json:"coverage"`
		Links []struct {
			ID        string   `json:"id"`
			Present   bool     `json:"present"`
			Score     *float64 `json:"score"`
			Threshold *float64 `json:"threshold"`
			Weight    float64  `json:"weight"`
			Health    struct {
				State              string  `json:"state"`
				Lifecycle          string  `json:"lifecycle"`
				DriftZ             float64 `json:"drift_z"`
				JumpExceeded       bool    `json:"jump_exceeded"`
				Refreshes          uint64  `json:"refreshes"`
				NeedsRecalibration bool    `json:"needs_recalibration"`
			} `json:"health"`
		} `json:"links"`
	}
	out := AppendVerdict(nil, &v)
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("encoder output is not valid JSON: %v\n%s", err, out)
	}
	if doc.Round != 42 || !doc.Present || doc.Inconclusive || doc.Score != 0.625 || doc.Positive != 2 || doc.Total != 3 {
		t.Fatalf("verdict fields mismatched: %+v", doc)
	}
	if doc.Policy != v.Policy {
		t.Fatalf("policy = %q, want %q (escaping)", doc.Policy, v.Policy)
	}
	if doc.Coverage.Links != 5 || doc.Coverage.Fused != 3 || doc.Coverage.Down != 1 || !doc.Coverage.Degraded {
		t.Fatalf("coverage mismatched: %+v", doc.Coverage)
	}
	if len(doc.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(doc.Links))
	}
	l0 := doc.Links[0]
	if l0.ID != "north\twing" || !l0.Present || *l0.Score != 1.25 || l0.Weight != 0.75 {
		t.Fatalf("link 0 mismatched: %+v", l0)
	}
	if l0.Health.State != "drifting" || l0.Health.Lifecycle != "stale" || l0.Health.DriftZ != -2.5 ||
		!l0.Health.JumpExceeded || l0.Health.Refreshes != 7 || !l0.Health.NeedsRecalibration {
		t.Fatalf("link 0 health mismatched: %+v", l0.Health)
	}
	// Non-finite floats serialize as null, never as invalid JSON.
	if doc.Links[1].Score != nil || doc.Links[1].Threshold != nil {
		t.Fatalf("non-finite floats should be null: %+v", doc.Links[1])
	}
}

// TestAppendVerdictInconclusive pins the dead-site document shape.
func TestAppendVerdictInconclusive(t *testing.T) {
	v := engine.SiteVerdict{
		Inconclusive: true,
		Policy:       "1-of-n",
		Coverage:     engine.Coverage{Links: 4, Down: 3, Recovering: 1},
	}
	var doc map[string]any
	if err := json.Unmarshal(AppendVerdict(nil, &v), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["inconclusive"] != true || doc["present"] != false {
		t.Fatalf("inconclusive doc = %v", doc)
	}
	cov := doc["coverage"].(map[string]any)
	if cov["down"] != 3.0 || cov["links"] != 4.0 || cov["degraded"] != true {
		t.Fatalf("coverage = %v", cov)
	}
	if links, ok := doc["links"].([]any); !ok || len(links) != 0 {
		t.Fatalf("links = %v, want empty array (valid JSON, no votes)", doc["links"])
	}
}

// TestAppendLinksGolden round-trips the /v1/links document.
func TestAppendLinksGolden(t *testing.T) {
	m := engine.Metrics{
		Links:         2,
		WindowsScored: 100,
		FramesSeen:    2500,
		ScoresPerSec:  42.5,
		Steals:        3,
		PerLink: []engine.LinkMetrics{
			{
				ID: "a", Calibrated: true, MeanMu: 0.5, Threshold: 0.25, WindowsScored: 60,
				LastScore: 0.1, MeanScore: 0.125, Present: false, NsPerWindowEWMA: 1500,
				Adaptive: true, Recalibrating: false, Lifecycle: adapt.LifecycleLive,
				SourceDrops: 2, Reconnects: 1,
			},
			{ID: "b", LastScore: math.Inf(-1)},
		},
	}
	var doc struct {
		WindowsScored uint64  `json:"windows_scored"`
		FramesSeen    uint64  `json:"frames_seen"`
		ScoresPerSec  float64 `json:"scores_per_sec"`
		Steals        uint64  `json:"steals"`
		Links         []struct {
			ID         string   `json:"id"`
			Calibrated bool     `json:"calibrated"`
			MeanMu     float64  `json:"mean_mu"`
			Windows    uint64   `json:"windows_scored"`
			LastScore  *float64 `json:"last_score"`
			Lifecycle  string   `json:"lifecycle"`
			Drops      uint64   `json:"source_drops"`
		} `json:"links"`
	}
	out := AppendLinks(nil, &m)
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if doc.WindowsScored != 100 || doc.FramesSeen != 2500 || doc.ScoresPerSec != 42.5 || doc.Steals != 3 {
		t.Fatalf("fleet counters mismatched: %+v", doc)
	}
	if len(doc.Links) != 2 || doc.Links[0].ID != "a" || !doc.Links[0].Calibrated ||
		doc.Links[0].MeanMu != 0.5 || doc.Links[0].Windows != 60 ||
		doc.Links[0].Lifecycle != "live" || doc.Links[0].Drops != 2 {
		t.Fatalf("link entries mismatched: %+v", doc.Links)
	}
	if doc.Links[1].LastScore != nil {
		t.Fatalf("-Inf should serialize as null, got %v", *doc.Links[1].LastScore)
	}
}

// TestAppendVerdictAllocFree checks the encoder itself is allocation-free
// once the destination buffer has capacity.
func TestAppendVerdictAllocFree(t *testing.T) {
	v := engine.SiteVerdict{
		Present: true, Score: 0.5, Positive: 1, Total: 2, Policy: "1-of-n",
		Links: []engine.LinkDecision{{LinkID: "l0", Decision: core.Decision{Score: 0.7, Threshold: 0.6}}},
	}
	buf := AppendVerdict(nil, &v)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendVerdict(buf[:0], &v)
	})
	if allocs != 0 {
		t.Fatalf("AppendVerdict allocates %.1f/op into a warm buffer, want 0", allocs)
	}
}

// TestAppendMetricsAllocFree is the same check for the Prometheus encoder.
func TestAppendMetricsAllocFree(t *testing.T) {
	var m engine.Metrics
	(&stubEngine{}).MetricsInto(&m)
	buf := AppendMetrics(nil, &m, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendMetrics(buf[:0], &m, nil)
	})
	if allocs != 0 {
		t.Fatalf("AppendMetrics allocates %.1f/op into a warm buffer, want 0", allocs)
	}
}
