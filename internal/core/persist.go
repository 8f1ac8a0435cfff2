package core

import (
	"fmt"
	"math"

	"mlink/internal/binio"
	"mlink/internal/csi"
	"mlink/internal/music"
)

// Versioned binary formats. Every top-level blob opens with a magic and a
// version so a daemon restarted onto a newer build can reject (rather than
// misread) profiles persisted by an older one.
const (
	// profileVersion tags the Profile layout: fingerprints, then partials.
	// Version 2 also stored the static spectrum and path weights, version 1
	// those and the frames instead of the partials; readProfile decodes both.
	profileVersion   uint16 = 3
	profileVersionV1 uint16 = 1
	// linkProfileVersion tags the LinkProfile (orig + adapted) layout.
	linkProfileVersion uint16 = 1
)

// profileMagic marks a serialized Profile ("MLPR") and linkProfileMagic a
// serialized LinkProfile ("MLLP").
const (
	profileMagic     uint32 = 0x4D4C5052
	linkProfileMagic uint32 = 0x4D4C4C50
)

// ErrBadSnapshot reports a persisted blob that cannot be decoded: truncated,
// wrong magic, or a version this build does not understand.
var ErrBadSnapshot = fmt.Errorf("core: bad profile snapshot (%w)", ErrBadInput)

// ErrConfigMismatch reports a well-formed profile recorded under another
// link configuration — another subcarrier grid, array size or scheme — which
// the link's kernel cannot score. It wraps ErrBadSnapshot; unlike corrupt
// data it calls for a fresh calibration, not an abort.
var ErrConfigMismatch = fmt.Errorf("core: profile recorded under another link configuration (%w)", ErrBadSnapshot)

// readFrame decodes one CSI frame of a version 1 profile (shape, metadata,
// RSSI, IQ values).
func readFrame(r *binio.Reader) (*csi.Frame, error) {
	seq := r.U32()
	ts := r.U64()
	nAnt := int(r.U16())
	nSub := int(r.U16())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nAnt == 0 || nSub == 0 {
		return nil, fmt.Errorf("frame %dx%d: %w", nAnt, nSub, ErrBadSnapshot)
	}
	// Corrupt dimensions must fail as a decode error before the contiguous
	// frame backing is allocated, not as a multi-gigabyte OOM.
	if need := 8*uint64(nAnt) + 16*uint64(nAnt)*uint64(nSub); uint64(len(r.Rest())) < need {
		return nil, fmt.Errorf("frame %dx%d needs %d bytes, have %d: %w",
			nAnt, nSub, need, len(r.Rest()), ErrBadSnapshot)
	}
	f := csi.NewFrame(nAnt, nSub)
	f.Seq, f.TimestampMicros = seq, ts
	for i := range f.RSSI {
		f.RSSI[i] = r.F64()
	}
	for _, row := range f.CSI {
		for k := range row {
			re := r.F64()
			im := r.F64()
			row[k] = complex(re, im)
		}
	}
	return f, r.Err()
}

// appendGrid2 serializes a rectangular [][]float64.
func appendGrid2(dst []byte, g [][]float64) []byte {
	dst = binio.AppendU16(dst, uint16(len(g)))
	cols := 0
	if len(g) > 0 {
		cols = len(g[0])
	}
	dst = binio.AppendU16(dst, uint16(cols))
	for _, row := range g {
		for _, v := range row {
			dst = binio.AppendF64(dst, v)
		}
	}
	return dst
}

func readGrid2(r *binio.Reader) ([][]float64, error) {
	rows := int(r.U16())
	cols := int(r.U16())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rows == 0 || cols == 0 {
		return nil, fmt.Errorf("empty %dx%d fingerprint: %w", rows, cols, ErrBadSnapshot)
	}
	// Validate against the remaining bytes before any row is allocated.
	if need := 8 * uint64(rows) * uint64(cols); uint64(len(r.Rest())) < need {
		return nil, fmt.Errorf("%dx%d fingerprint needs %d bytes, have %d: %w",
			rows, cols, need, len(r.Rest()), ErrBadSnapshot)
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			out[i][j] = r.F64()
		}
	}
	return out, r.Err()
}

// AppendBinary serializes what calibration measured — the fingerprints and,
// for the path scheme, the partials the decoders re-derive the path weights
// from — onto dst and returns the extended slice.
func (p *Profile) AppendBinary(dst []byte) ([]byte, error) {
	if p == nil || len(p.MeanAmp) == 0 || len(p.MeanRSSdB) == 0 {
		return nil, fmt.Errorf("serialize empty profile: %w", ErrBadInput)
	}
	dst = binio.AppendU32(dst, profileMagic)
	dst = binio.AppendU16(dst, profileVersion)
	dst = appendGrid2(dst, p.MeanAmp)
	dst = appendGrid2(dst, p.MeanRSSdB)
	dst = binio.AppendBool(dst, p.Partials != nil)
	if p.Partials != nil {
		dst = p.Partials.AppendBinary(dst)
	}
	return dst, nil
}

// readProfile decodes one Profile for cfg at the reader's position.
func readProfile(r *binio.Reader, cfg Config) (*Profile, error) {
	if m := r.U32(); r.Err() == nil && m != profileMagic {
		return nil, fmt.Errorf("profile magic %#x: %w", m, ErrBadSnapshot)
	}
	v := r.U16()
	if r.Err() == nil && (v < profileVersionV1 || v > profileVersion) {
		return nil, fmt.Errorf("profile version %d (want %d): %w", v, profileVersion, ErrBadSnapshot)
	}
	p := &Profile{}
	var err error
	if p.MeanAmp, err = readGrid2(r); err != nil {
		return nil, fmt.Errorf("mean amplitude: %w", err)
	}
	if p.MeanRSSdB, err = readGrid2(r); err != nil {
		return nil, fmt.Errorf("mean rss: %w", err)
	}
	if v < profileVersion {
		// Skip the static spectrum and path weights of versions 1 and 2.
		if r.Bool() {
			r.F64s()
			r.F64s()
		}
		r.F64s()
	}
	path := cfg.Scheme == SchemeSubcarrierPath
	if v == profileVersionV1 {
		p.Partials, err = readV1Partials(r, path)
	} else if r.Bool() {
		p.Partials, err = music.ReadPartials(r)
	}
	if err != nil {
		return nil, fmt.Errorf("calibration partials: %w: %w", ErrBadSnapshot, err)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := p.checkConfig(cfg); err != nil {
		return nil, err
	}
	if path {
		if _, p.PathWeights, err = pathWeights(cfg, p.Partials); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
	}
	return p, nil
}

// checkConfig rejects a decoded profile that the link's kernel could not
// score: fingerprints not spanning cfg's subcarrier grid (and, for the path
// scheme, its array), or partials present where cfg's scheme reads none or
// missing where it needs them — ErrConfigMismatch — or fingerprints and
// partials whose shapes disagree with each other, which is corrupt data.
func (p *Profile) checkConfig(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	nAnt, nSub := len(p.MeanAmp), len(p.MeanAmp[0])
	if len(p.MeanRSSdB) != nAnt || len(p.MeanRSSdB[0]) != nSub {
		return fmt.Errorf("rss fingerprint %dx%d differs from amplitude %dx%d: %w",
			len(p.MeanRSSdB), len(p.MeanRSSdB[0]), nAnt, nSub, ErrBadSnapshot)
	}
	if nSub != cfg.Grid.Len() {
		return fmt.Errorf("fingerprint of %d subcarriers for a %d-subcarrier grid: %w", nSub, cfg.Grid.Len(), ErrConfigMismatch)
	}
	path := cfg.Scheme == SchemeSubcarrierPath
	if path && nAnt != len(cfg.ArrayOffsets) {
		return fmt.Errorf("fingerprint of %d antennas for a %d-element array: %w", nAnt, len(cfg.ArrayOffsets), ErrConfigMismatch)
	}
	if (p.Partials != nil) != path {
		return fmt.Errorf("profile with partials %v for scheme %s: %w", p.Partials != nil, cfg.Scheme, ErrConfigMismatch)
	}
	if p.Partials != nil {
		if pAnt, pSub := p.Partials.Shape(); pAnt != nAnt || pSub != nSub {
			return fmt.Errorf("partials %dx%d differ from fingerprint %dx%d: %w", pAnt, pSub, nAnt, nSub, ErrBadSnapshot)
		}
	}
	return nil
}

// readV1Partials reads the calibration frame list of a version 1 profile
// and, for the path scheme, returns the frames' partials, as Calibrate
// stores them; the frames themselves are dropped.
func readV1Partials(r *binio.Reader, path bool) (*music.Partials, error) {
	nFrames := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Every frame costs at least its fixed header; a corrupt count cannot
	// be allowed to size the slice.
	if uint64(nFrames)*16 > uint64(len(r.Rest())) {
		return nil, fmt.Errorf("%d frames in %d bytes: %w", nFrames, len(r.Rest()), ErrBadSnapshot)
	}
	frames := make([]*csi.Frame, 0, nFrames)
	for i := 0; i < nFrames; i++ {
		f, err := readFrame(r)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		frames = append(frames, f)
	}
	if !path || len(frames) == 0 {
		return nil, nil
	}
	return music.NewPartials(frames)
}

// UnmarshalProfile decodes a Profile serialized by AppendBinary for a link
// scoring with cfg. The whole buffer must be consumed.
func UnmarshalProfile(cfg Config, b []byte) (*Profile, error) {
	r := binio.NewReader(b)
	p, err := readProfile(r, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// AppendBinary serializes the link profile: EWMA alpha, refresh count, the
// immutable calibration original (in full, partials included) and the
// adapted fingerprints. ShiftDB needs no field of its own — it is
// re-derived from the two fingerprints on restore, so it can never disagree
// with them.
func (lp *LinkProfile) AppendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendU32(dst, linkProfileMagic)
	dst = binio.AppendU16(dst, linkProfileVersion)
	dst = binio.AppendF64(dst, lp.alpha)
	dst = binio.AppendU64(dst, lp.refreshes)
	var err error
	if dst, err = lp.orig.AppendBinary(dst); err != nil {
		return nil, fmt.Errorf("link profile original: %w", err)
	}
	// The adapted profile shares partials and path weights with the
	// original by construction (Refresh and Adopt carry them over by
	// reference), so only its fingerprints are stored.
	dst = appendGrid2(dst, lp.cur.MeanAmp)
	dst = appendGrid2(dst, lp.cur.MeanRSSdB)
	return dst, nil
}

// readLinkProfile decodes a LinkProfile for cfg at the reader's position.
func readLinkProfile(r *binio.Reader, cfg Config) (*LinkProfile, error) {
	if m := r.U32(); r.Err() == nil && m != linkProfileMagic {
		return nil, fmt.Errorf("link profile magic %#x: %w", m, ErrBadSnapshot)
	}
	if v := r.U16(); r.Err() == nil && v != linkProfileVersion {
		return nil, fmt.Errorf("link profile version %d (want %d): %w", v, linkProfileVersion, ErrBadSnapshot)
	}
	alpha := r.F64()
	refreshes := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	orig, err := readProfile(r, cfg)
	if err != nil {
		return nil, fmt.Errorf("original profile: %w", err)
	}
	lp, err := NewLinkProfile(orig, alpha)
	if err != nil {
		return nil, err
	}
	curAmp, err := readGrid2(r)
	if err != nil {
		return nil, fmt.Errorf("adapted amplitude: %w", err)
	}
	curRSS, err := readGrid2(r)
	if err != nil {
		return nil, fmt.Errorf("adapted rss: %w", err)
	}
	if len(curAmp) != len(orig.MeanAmp) || len(curAmp[0]) != len(orig.MeanAmp[0]) {
		return nil, fmt.Errorf("adapted fingerprint %dx%d differs from original %dx%d: %w",
			len(curAmp), len(curAmp[0]), len(orig.MeanAmp), len(orig.MeanAmp[0]), ErrBadSnapshot)
	}
	if len(curRSS) != len(curAmp) || len(curRSS[0]) != len(curAmp[0]) {
		return nil, fmt.Errorf("adapted rss %dx%d differs from amplitude %dx%d: %w",
			len(curRSS), len(curRSS[0]), len(curAmp), len(curAmp[0]), ErrBadSnapshot)
	}
	if refreshes > 0 {
		lp.cur = orig.withFingerprints(curAmp, curRSS)
	}
	lp.refreshes = refreshes
	return lp, nil
}

// UnmarshalLinkProfile decodes a LinkProfile serialized by AppendBinary for
// a link scoring with cfg. The whole buffer must be consumed.
func UnmarshalLinkProfile(cfg Config, b []byte) (*LinkProfile, error) {
	r := binio.NewReader(b)
	lp, err := readLinkProfile(r, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("link profile: %w", err)
	}
	return lp, nil
}

// AdaptedState is the mutable slice of a LinkProfile — the refresh counter
// and the adapted fingerprints, everything that changes between two journal
// deltas. The immutable calibration original travels only in full records.
type AdaptedState struct {
	// Refreshes counts applied EWMA updates (0 means the adapted profile is
	// still the calibration original).
	Refreshes uint64
	// MeanAmp and MeanRSSdB are the adapted fingerprints.
	MeanAmp, MeanRSSdB [][]float64
}

// AppendAdaptedBinary serializes the link profile's mutable slice (refresh
// count plus adapted fingerprints) — the LinkProfile half of a journal
// delta. Pure appends: given capacity it allocates nothing.
func (lp *LinkProfile) AppendAdaptedBinary(dst []byte) []byte {
	dst = binio.AppendU64(dst, lp.refreshes)
	dst = appendGrid2(dst, lp.cur.MeanAmp)
	return appendGrid2(dst, lp.cur.MeanRSSdB)
}

// ReadAdaptedState decodes an AppendAdaptedBinary blob from the reader's
// current position.
func ReadAdaptedState(r *binio.Reader) (AdaptedState, error) {
	var st AdaptedState
	st.Refreshes = r.U64()
	var err error
	if st.MeanAmp, err = readGrid2(r); err != nil {
		return st, fmt.Errorf("adapted amplitude: %w", err)
	}
	if st.MeanRSSdB, err = readGrid2(r); err != nil {
		return st, fmt.Errorf("adapted rss: %w", err)
	}
	return st, nil
}

// RestoreAdapted replaces the link profile's mutable slice with persisted
// state, validating the fingerprints against the calibration original's
// shape first — on any error the profile is left untouched. As in
// readLinkProfile, a zero refresh count restores cur as the original
// itself, and an adapted profile shares the original's calibration-derived
// fields by reference.
func (lp *LinkProfile) RestoreAdapted(st AdaptedState) error {
	if len(st.MeanAmp) != len(lp.orig.MeanAmp) || len(st.MeanAmp[0]) != len(lp.orig.MeanAmp[0]) {
		return fmt.Errorf("adapted fingerprint %dx%d differs from original %dx%d: %w",
			len(st.MeanAmp), len(st.MeanAmp[0]), len(lp.orig.MeanAmp), len(lp.orig.MeanAmp[0]), ErrBadSnapshot)
	}
	if len(st.MeanRSSdB) != len(st.MeanAmp) || len(st.MeanRSSdB[0]) != len(st.MeanAmp[0]) {
		return fmt.Errorf("adapted rss %dx%d differs from amplitude %dx%d: %w",
			len(st.MeanRSSdB), len(st.MeanRSSdB[0]), len(st.MeanAmp), len(st.MeanAmp[0]), ErrBadSnapshot)
	}
	if st.Refreshes == 0 {
		lp.cur = lp.orig
	} else {
		lp.cur = lp.orig.withFingerprints(st.MeanAmp, st.MeanRSSdB)
	}
	lp.refreshes = st.Refreshes
	return nil
}

// DriftMonitorState is the serializable state of a DriftMonitor: reference
// statistics plus the rolling score window, ordered oldest to newest. It is
// what the persistence layer stores so a restarted daemon's drift test
// resumes mid-window instead of going blind for a whole warm-up period.
type DriftMonitorState struct {
	// RefMean and RefStd are the reference null statistics (μ₀, σ₀).
	RefMean, RefStd float64
	// Scores and Jumps are the rolling window contents, oldest first; Jumps
	// is aligned with Scores (|Δ| versus the preceding observation).
	Scores, Jumps []float64
	// Prev is the last observed score (the jump base), valid when HavePrev.
	Prev     float64
	HavePrev bool
	// Seen counts all observations ever made.
	Seen uint64
	// OverCritical is the current consecutive-over-critical streak and
	// Latched the critical hysteresis latch.
	OverCritical int
	Latched      bool
}

// StateInto exports the monitor for persistence into the caller's struct,
// reusing its Scores and Jumps slices — so the journal's per-window delta
// emission exports the monitor without allocating once the buffers have
// grown to the window length.
func (m *DriftMonitor) StateInto(st *DriftMonitorState) {
	n := m.count()
	st.RefMean = m.refMean
	st.RefStd = m.refStd
	st.Scores = st.Scores[:0]
	st.Jumps = st.Jumps[:0]
	st.Prev = m.prev
	st.HavePrev = m.havePrev
	st.Seen = m.seen
	st.OverCritical = m.overCrit
	st.Latched = m.latched
	start := 0
	if m.full {
		start = m.next
	}
	for i := 0; i < n; i++ {
		j := (start + i) % len(m.ring)
		st.Scores = append(st.Scores, m.ring[j])
		st.Jumps = append(st.Jumps, m.jumps[j])
	}
}

// RestoreDriftMonitor rebuilds a monitor from persisted state. A persisted
// sample longer than the window keeps its newest scores.
func RestoreDriftMonitor(st DriftMonitorState) (*DriftMonitor, error) {
	if len(st.Jumps) != len(st.Scores) {
		return nil, fmt.Errorf("drift state with %d jumps for %d scores: %w", len(st.Jumps), len(st.Scores), ErrBadInput)
	}
	if st.RefStd <= 0 || math.IsNaN(st.RefMean) || math.IsNaN(st.RefStd) {
		return nil, fmt.Errorf("drift state reference (μ₀=%v, σ₀=%v): %w", st.RefMean, st.RefStd, ErrBadInput)
	}
	m := &DriftMonitor{
		refMean:  st.RefMean,
		refStd:   st.RefStd,
		ring:     make([]float64, driftWindow),
		jumps:    make([]float64, driftWindow),
		prev:     st.Prev,
		havePrev: st.HavePrev,
		seen:     st.Seen,
		overCrit: st.OverCritical,
		latched:  st.Latched,
		last:     DriftStats{RefMean: st.RefMean, RefStd: st.RefStd, Observed: st.Seen},
	}
	scores, jumps := st.Scores, st.Jumps
	if len(scores) > driftWindow {
		scores = scores[len(scores)-driftWindow:]
		jumps = jumps[len(jumps)-driftWindow:]
	}
	for i, s := range scores {
		m.ring[i] = s
		m.jumps[i] = jumps[i]
		m.sum += s
	}
	m.next = len(scores) % driftWindow
	m.full = len(scores) == driftWindow
	return m, nil
}

// Reset empties the rolling window and clears the critical latch while
// keeping the reference statistics — the clean-slate restart the fleet layer
// performs after relocking a link's baseline, when the scores accumulated
// against the pre-relock profile would poison every rolling statistic.
func (m *DriftMonitor) Reset() {
	for i := range m.ring {
		m.ring[i] = 0
		m.jumps[i] = 0
	}
	m.next, m.full = 0, false
	m.sum = 0
	m.havePrev = false
	m.overCrit = 0
	m.latched = false
	m.last = DriftStats{RefMean: m.refMean, RefStd: m.refStd, Observed: m.seen}
}
