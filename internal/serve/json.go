package serve

import (
	"math"
	"strconv"

	"mlink/internal/adapt"
	"mlink/internal/engine"
)

// Hand-rolled append-style JSON encoders for the serving plane. The stream
// hub serializes one verdict per fusion round into a reused frame buffer, so
// the encoder must not allocate: every function below appends into the
// caller's buffer and returns the extended slice, exactly like the strconv
// Append family it is built from. encoding/json would allocate per call (and
// reflect per field) — hand-rolling is the price of the zero-allocation
// fan-out contract, and the golden tests pin the output against
// encoding/json-parsed expectations so the two never drift.

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
	}
	return append(b, '"')
}

// appendFloat appends v as a JSON number; NaN and ±Inf — which JSON cannot
// represent — become null rather than an encoding error, so one pathological
// score can never take the whole verdict endpoint down.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendHealth appends a link's adaptation health snapshot.
func appendHealth(b []byte, h *adapt.Health) []byte {
	b = append(b, `{"state":`...)
	b = appendJSONString(b, h.State.String())
	b = append(b, `,"lifecycle":`...)
	b = appendJSONString(b, h.Lifecycle.String())
	b = append(b, `,"drift_z":`...)
	b = appendFloat(b, h.DriftZ)
	b = append(b, `,"score_z":`...)
	b = appendFloat(b, h.ScoreZ)
	b = append(b, `,"jump_exceeded":`...)
	b = strconv.AppendBool(b, h.JumpExceeded)
	b = append(b, `,"profile_shift_db":`...)
	b = appendFloat(b, h.ProfileShiftDB)
	b = append(b, `,"shift_rate_db":`...)
	b = appendFloat(b, h.ShiftRateDB)
	b = append(b, `,"refreshes":`...)
	b = strconv.AppendUint(b, h.Refreshes, 10)
	b = append(b, `,"threshold_updates":`...)
	b = strconv.AppendUint(b, h.ThresholdUpdates, 10)
	b = append(b, `,"relocks":`...)
	b = strconv.AppendUint(b, h.Relocks, 10)
	b = append(b, `,"threshold":`...)
	b = appendFloat(b, h.Threshold)
	b = append(b, `,"needs_recalibration":`...)
	b = strconv.AppendBool(b, h.NeedsRecalibration)
	b = append(b, `,"refresh_suppressed":`...)
	b = strconv.AppendBool(b, h.RefreshSuppressed)
	return append(b, '}')
}

// appendLinkDecision appends one fused link vote.
func appendLinkDecision(b []byte, d *engine.LinkDecision) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, d.LinkID)
	b = append(b, `,"present":`...)
	b = strconv.AppendBool(b, d.Present)
	b = append(b, `,"score":`...)
	b = appendFloat(b, d.Score)
	b = append(b, `,"threshold":`...)
	b = appendFloat(b, d.Threshold)
	b = append(b, `,"weight":`...)
	b = appendFloat(b, d.Weight)
	b = append(b, `,"health":`...)
	b = appendHealth(b, &d.Health)
	return append(b, '}')
}

// appendCoverage appends the verdict's fleet-availability block.
func appendCoverage(b []byte, c *engine.Coverage) []byte {
	b = append(b, `{"links":`...)
	b = strconv.AppendInt(b, int64(c.Links), 10)
	b = append(b, `,"fused":`...)
	b = strconv.AppendInt(b, int64(c.Fused), 10)
	b = append(b, `,"live":`...)
	b = strconv.AppendInt(b, int64(c.Live), 10)
	b = append(b, `,"stale":`...)
	b = strconv.AppendInt(b, int64(c.Stale), 10)
	b = append(b, `,"down":`...)
	b = strconv.AppendInt(b, int64(c.Down), 10)
	b = append(b, `,"recovering":`...)
	b = strconv.AppendInt(b, int64(c.Recovering), 10)
	b = append(b, `,"recalibrating":`...)
	b = strconv.AppendInt(b, int64(c.Recalibrating), 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, c.Degraded())
	return append(b, '}')
}

// AppendVerdict appends v as the /v1/verdict JSON document. Inconclusive and
// Coverage are first-class fields: a dead site (every link down, recovering,
// recalibrating or quarantined) serializes as a well-formed verdict with
// "inconclusive": true, never as an error payload. "round" is the id of the
// latest closed fusion round.
func AppendVerdict(b []byte, v *engine.SiteVerdict) []byte {
	b = append(b, `{"round":`...)
	b = strconv.AppendUint(b, v.Round, 10)
	b = append(b, `,"present":`...)
	b = strconv.AppendBool(b, v.Present)
	b = append(b, `,"inconclusive":`...)
	b = strconv.AppendBool(b, v.Inconclusive)
	b = append(b, `,"score":`...)
	b = appendFloat(b, v.Score)
	b = append(b, `,"positive":`...)
	b = strconv.AppendInt(b, int64(v.Positive), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(v.Total), 10)
	b = append(b, `,"policy":`...)
	b = appendJSONString(b, v.Policy)
	b = append(b, `,"coverage":`...)
	b = appendCoverage(b, &v.Coverage)
	b = append(b, `,"links":[`...)
	for i := range v.Links {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLinkDecision(b, &v.Links[i])
	}
	return append(b, ']', '}')
}

// AppendLinks appends m as the /v1/links JSON document: per-link monitoring
// state plus the fleet-wide counters.
func AppendLinks(b []byte, m *engine.Metrics) []byte {
	b = append(b, `{"windows_scored":`...)
	b = strconv.AppendUint(b, m.WindowsScored, 10)
	b = append(b, `,"frames_seen":`...)
	b = strconv.AppendUint(b, m.FramesSeen, 10)
	b = append(b, `,"scores_per_sec":`...)
	b = appendFloat(b, m.ScoresPerSec)
	b = append(b, `,"steals":`...)
	b = strconv.AppendUint(b, m.Steals, 10)
	b = append(b, `,"links":[`...)
	for i := range m.PerLink {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLinkMetrics(b, &m.PerLink[i])
	}
	return append(b, ']', '}')
}

// appendLinkMetrics appends one link's monitoring snapshot.
func appendLinkMetrics(b []byte, lm *engine.LinkMetrics) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, lm.ID)
	b = append(b, `,"calibrated":`...)
	b = strconv.AppendBool(b, lm.Calibrated)
	b = append(b, `,"mean_mu":`...)
	b = appendFloat(b, lm.MeanMu)
	b = append(b, `,"threshold":`...)
	b = appendFloat(b, lm.Threshold)
	b = append(b, `,"windows_scored":`...)
	b = strconv.AppendUint(b, lm.WindowsScored, 10)
	b = append(b, `,"last_score":`...)
	b = appendFloat(b, lm.LastScore)
	b = append(b, `,"mean_score":`...)
	b = appendFloat(b, lm.MeanScore)
	b = append(b, `,"present":`...)
	b = strconv.AppendBool(b, lm.Present)
	b = append(b, `,"ns_per_window_ewma":`...)
	b = appendFloat(b, lm.NsPerWindowEWMA)
	b = append(b, `,"adaptive":`...)
	b = strconv.AppendBool(b, lm.Adaptive)
	b = append(b, `,"recalibrating":`...)
	b = strconv.AppendBool(b, lm.Recalibrating)
	b = append(b, `,"lifecycle":`...)
	b = appendJSONString(b, lm.Lifecycle.String())
	b = append(b, `,"source_drops":`...)
	b = strconv.AppendUint(b, lm.SourceDrops, 10)
	b = append(b, `,"reconnects":`...)
	b = strconv.AppendUint(b, lm.Reconnects, 10)
	b = append(b, `,"health":`...)
	b = appendHealth(b, &lm.Health)
	return append(b, '}')
}
