// Package core implements the paper's contribution: the multipath factor
// (Eq. 3, 9–11), the subcarrier weighting scheme (Eq. 12–15), the MUSIC
// path weighting scheme (Eq. 17), and the calibration/monitoring detector
// of §IV-C with its three variants (baseline, +subcarrier weighting,
// +subcarrier and path weighting).
//
// The lifecycle mirrors §IV-C: Calibrate builds a static Profile from
// empty-room frames, NewDetector pairs it with a Config, SelfScores +
// CalibrateThreshold fix the decision threshold from the profile's own
// variations, and Score/Detect judge monitoring windows. Long-lived scoring
// workers pass a reusable Scratch to ScoreScratch/DetectScratch to keep the
// per-window hot path allocation-free (internal/engine does this per pool
// worker). That holds for every scheme, including the angular
// SchemeSubcarrierPath: the Kernel carries a precomputed music.Plan
// (steering table), the Profile carries music.Partials of its calibration
// frames (rebuilt wherever Frames are established — Calibrate, persistence
// restore — and carried by reference through refresh/adopt, since those
// never change Frames), and the Scratch holds the window covariances and
// spectra, fully rewritten each window so scores are bit-identical across
// scratches and shard migrations.
//
// One sanitize per window: Kernel.Score leaves the window's sanitized frames
// in the caller's Scratch, and Kernel.MeasureWindowInto (the measurement
// half of a profile refresh) measures those frames instead of sanitizing
// the window again — when, and only when, the scratch's one-shot record
// says it just prepared exactly this window (same kernel, same source
// frames). Any other scratch falls back to preparing the window, so the
// statistics are bit-identical either way. Scratch lifetime: a scratch's
// prepared frames are only valid until its next use, and a caller reads
// them within one score-then-measure sequence on one goroutine, never
// retaining the scratch across windows — engine links migrate between
// shards, so a link's next window may be scored on another scratch.
//
// One definition of a window's mean RSS: windowMeanRSSdBInto, the
// per-subcarrier mean of 10·log₁₀|H|² computed as 10·log₁₀(Π p)/M with
// decade rescue (one logarithm per subcarrier, not per packet). Scoring's
// Δs, Calibrate's profile fingerprint and a refresh's window statistics all
// call it, so a profile is never EWMA-mixed with an RSS computed another
// way. Reuse rule: SchemeSubcarrier scoring leaves its rows in the Scratch
// beside the prepared-frames record, and MeasureWindowInto copies them only
// on a record hit over scratch-owned (sanitized) frames. Frames the caller
// owns may have changed since scoring, so they are always measured afresh.
//
// The detector is split into an immutable scoring Kernel and mutable link
// state so profiles can adapt online: LinkProfile applies EWMA refreshes
// from silent-window statistics (copy-on-write; concurrent scorers always
// see a consistent snapshot), DriftMonitor runs the windowed
// score-statistics test that flags a walked empty-room baseline, and the
// typed threshold errors (ErrTooFewNullScores, ErrDegenerateNull,
// ErrNonFiniteScore) keep junk null samples from becoming junk thresholds.
// The adaptation policy that drives these pieces lives in internal/adapt.
package core
