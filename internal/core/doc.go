// Package core implements the paper's contribution: the multipath factor
// (Eq. 3, 9–11), the subcarrier weighting scheme (Eq. 12–15), the MUSIC
// path weighting scheme (Eq. 17), and the calibration/monitoring detector
// of §IV-C with its three variants (baseline, +subcarrier weighting,
// +subcarrier and path weighting).
//
// The lifecycle mirrors §IV-C: Calibrate builds a static Profile from
// empty-room frames, NewDetector pairs it with a Config, SelfScores +
// CalibrateThreshold fix the decision threshold (at ThresholdQuantile) from
// the profile's own variations, and monitoring windows go through one score,
// Detector.ScoreScratch, and one decision, Detector.DetectScratch. The
// caller owns the Scratch and passes it to every call (a nil one is
// ErrBadInput); reusing it keeps the per-window hot path allocation-free —
// internal/engine holds one per shard. That holds for every scheme,
// including the angular SchemeSubcarrierPath: the Kernel carries its array
// geometry's shared music.Plan (steering table, built once per process and
// used by Calibrate too), the Profile carries music.Partials of its
// calibration frames (built by Calibrate, serialized with the profile, and
// carried by reference through refresh/adopt), and the Scratch holds the
// window covariances, fully rewritten each window so scores are
// bit-identical across scratches and shard migrations.
//
// A Profile keeps nothing of its calibration frames, so a caller may
// recycle them once Calibrate returns. Scoring reads the fingerprints and,
// for the path scheme, the partials and the Eq. 17 path weights that
// pathWeights derives from them; no profile keeps the static spectrum. A
// record holds only the fingerprints and partials, and the decoders take the
// link's Config to re-derive the weights (record versions 1–3 all decode).
//
// Scoring reads the caller's frames as they are: Calibrate, Kernel.Score
// and MeasureWindowInto apply no phase sanitization. Removing a phase that
// is common to all antennas at each subcarrier (the fitted line
// internal/sanitize subtracts) leaves
// per-subcarrier power, amplitude and spatial covariance unchanged, so Δs,
// the baseline's amplitudes and the Bartlett/MUSIC spectra do not depend
// on it; the multipath factor μ (Eq. 11) is computed on the raw row, as
// LinkMeanMu always did. Version 1 records written while calibration still
// sanitized hold sanitized calibration frames and score the same within
// rounding.
//
// One definition of a link's mean multipath factor: LinkMeanMu, which the
// engine publishes per link and the facade's AssessLink reports.
//
// One definition of a window's mean RSS: windowMeanRSSdBInto, the
// per-subcarrier mean of 10·log₁₀|H|² computed as 10·log₁₀(Π p)/M with
// decade rescue (one logarithm per subcarrier, not per packet). Scoring's
// Δs, Calibrate's profile fingerprint and a refresh's window statistics all
// call it, so a profile is never EWMA-mixed with an RSS computed another
// way. Reuse rule: SchemeSubcarrier scoring leaves its rows in the Scratch
// with a one-shot record of the kernel and the window's frame pointers, and
// MeasureWindowInto copies them — bit-identical to a recompute — only when
// the record names exactly the window it measures under the same kernel.
// The caller must not modify a window's frames between scoring and
// measuring it. A scratch's rows are only valid until its next use, and a
// caller reads them within one score-then-measure sequence on one
// goroutine, never retaining the scratch across windows — engine links
// migrate between shards, so a link's next window may be scored on another
// scratch.
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
