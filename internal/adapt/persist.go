package adapt

import (
	"fmt"

	"mlink/internal/binio"
	"mlink/internal/core"
)

// adapterMagic marks a serialized adapter snapshot ("MLAD"); adapterVersion
// tags the layout so an incompatible build rejects instead of misreading.
// deltaMagic marks a journal delta ("MLDT") — the small absolute record of
// just the adapter's mutable state, emitted per scored window against a
// full snapshot base.
const (
	adapterMagic   uint32 = 0x4D4C4144
	adapterVersion uint16 = 1
	deltaMagic     uint32 = 0x4D4C4454
	deltaVersion   uint16 = 1
)

// ErrBadSnapshot reports an adapter snapshot that cannot be decoded. It
// wraps core.ErrBadInput (bad data).
var ErrBadSnapshot = fmt.Errorf("adapt: bad adapter snapshot (%w)", core.ErrBadInput)

// appendDriftState serializes a drift-monitor state. readDriftState is its
// exact inverse; full snapshots and deltas share both, so the two formats
// cannot drift apart when the state grows a field.
func appendDriftState(dst []byte, st *core.DriftMonitorState) []byte {
	dst = binio.AppendF64(dst, st.RefMean)
	dst = binio.AppendF64(dst, st.RefStd)
	dst = binio.AppendF64s(dst, st.Scores)
	dst = binio.AppendF64s(dst, st.Jumps)
	dst = binio.AppendF64(dst, st.Prev)
	dst = binio.AppendBool(dst, st.HavePrev)
	dst = binio.AppendU64(dst, st.Seen)
	dst = binio.AppendI64(dst, int64(st.OverCritical))
	return binio.AppendBool(dst, st.Latched)
}

func readDriftState(r *binio.Reader) core.DriftMonitorState {
	return core.DriftMonitorState{
		RefMean:      r.F64(),
		RefStd:       r.F64(),
		Scores:       r.F64s(),
		Jumps:        r.F64s(),
		Prev:         r.F64(),
		HavePrev:     r.Bool(),
		Seen:         r.U64(),
		OverCritical: int(r.I64()),
		Latched:      r.Bool(),
	}
}

// appendHealth serializes the persisted health fields. ProfileShiftDB,
// Refreshes and Threshold are deliberately absent — they are re-derived
// from the restored profile and detector, so a record can never disagree
// with itself — and RefreshSuppressed is a live fleet-control input, not
// state.
func appendHealth(dst []byte, h Health) []byte {
	dst = binio.AppendI64(dst, int64(h.State))
	dst = binio.AppendF64(dst, h.DriftZ)
	dst = binio.AppendF64(dst, h.ScoreZ)
	dst = binio.AppendBool(dst, h.JumpExceeded)
	dst = binio.AppendF64(dst, h.ShiftRateDB)
	dst = binio.AppendU64(dst, h.ThresholdUpdates)
	dst = binio.AppendU64(dst, h.Relocks)
	return binio.AppendBool(dst, h.NeedsRecalibration)
}

func readHealth(r *binio.Reader) Health {
	var h Health
	h.State = State(r.I64())
	h.DriftZ = r.F64()
	h.ScoreZ = r.F64()
	h.JumpExceeded = r.Bool()
	h.ShiftRateDB = r.F64()
	h.ThresholdUpdates = r.U64()
	h.Relocks = r.U64()
	h.NeedsRecalibration = r.Bool()
	return h
}

// appendTail serializes everything after the profile section — threshold,
// its calibration floor, the rolling nulls, the re-derivation countdown,
// the walk trend, drift-monitor state and health — shared verbatim by full
// snapshots and deltas.
func (a *Adapter) appendTail(dst []byte) []byte {
	dst = binio.AppendF64(dst, a.det.Threshold())
	dst = binio.AppendF64(dst, a.baseThr)
	dst = binio.AppendF64s(dst, a.nulls)
	dst = binio.AppendI64(dst, int64(a.sinceRederive))
	dst = binio.AppendF64(dst, a.lastShiftDB)
	a.mon.StateInto(&a.stScratch)
	dst = appendDriftState(dst, &a.stScratch)
	return appendHealth(dst, a.health)
}

// AppendBinary serializes the adapter's full resumable state — link profile
// (original and adapted fingerprints), decision threshold and its
// calibration-time floor, the rolling null buffer, the drift monitor's
// rolling window, and the health counters — so a restarted daemon resumes
// from the walked baseline instead of recalibrating from scratch. Call it
// from the observer's goroutine (or while the link is quiescent), like every
// other observer-side method. Pure appends into dst (no scratch slices), so
// a journal emitter with a warmed buffer serializes without allocating.
func (a *Adapter) AppendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendU32(dst, adapterMagic)
	dst = binio.AppendU16(dst, adapterVersion)
	dst, mark := binio.ReserveLen(dst)
	var err error
	if dst, err = a.lp.AppendBinary(dst); err != nil {
		return nil, fmt.Errorf("adapter profile: %w", err)
	}
	dst = binio.PatchLen(dst, mark)
	return a.appendTail(dst), nil
}

// AppendDelta serializes just the adapter's mutable state — the refresh
// counter and adapted fingerprints, threshold, rolling nulls, drift-monitor
// window and health — as an absolute (not incremental) journal delta. A
// restart replays the latest full snapshot and then the latest delta after
// it; the result is bit-identical to the adapter at the delta's emission
// (see ApplyDelta). Unlike AppendBinary it omits the calibration original:
// on a 3 × 30 subcarrier link a delta is about 2.1 KB against a full
// record's 3.6 KB, to which a path link adds its calibration partials.
// Observer-side, allocation-free like the rest of the Observe path.
func (a *Adapter) AppendDelta(dst []byte) []byte {
	dst = binio.AppendU32(dst, deltaMagic)
	dst = binio.AppendU16(dst, deltaVersion)
	dst = a.lp.AppendAdaptedBinary(dst)
	return a.appendTail(dst)
}

// ApplyDelta replays one AppendDelta blob onto this adapter, replacing its
// whole mutable state. The adapter must have been restored (or freshly
// built) from the full record the delta was emitted against: the delta
// carries no calibration original, so the profile shapes are validated
// against the one already in place. Everything is parsed and validated
// before anything is committed — a truncated or corrupt delta leaves the
// adapter exactly as it was. After a successful apply the adapter's
// AppendBinary output is bit-identical to the emitting adapter's at the
// moment the delta was written.
func (a *Adapter) ApplyDelta(blob []byte) error {
	r := binio.NewReader(blob)
	if m := r.U32(); r.Err() == nil && m != deltaMagic {
		return fmt.Errorf("delta magic %#x: %w", m, ErrBadSnapshot)
	}
	if v := r.U16(); r.Err() == nil && v != deltaVersion {
		return fmt.Errorf("delta version %d (want %d): %w", v, deltaVersion, ErrBadSnapshot)
	}
	st, err := core.ReadAdaptedState(r)
	if err != nil {
		return fmt.Errorf("delta profile: %w", err)
	}
	threshold := r.F64()
	baseThr := r.F64()
	nulls := r.F64s()
	sinceRederive := int(r.I64())
	lastShiftDB := r.F64()
	mon := readDriftState(r)
	h := readHealth(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	monitor, err := core.RestoreDriftMonitor(mon)
	if err != nil {
		return fmt.Errorf("delta drift monitor: %w", err)
	}
	if err := a.lp.RestoreAdapted(st); err != nil {
		return fmt.Errorf("delta profile: %w", err)
	}
	if err := a.det.SetProfile(a.lp.Current()); err != nil {
		return fmt.Errorf("delta profile swap: %w", err)
	}
	a.det.SetThreshold(threshold)
	a.baseThr = baseThr
	if len(nulls) > nullWindow {
		nulls = nulls[len(nulls)-nullWindow:]
	}
	a.nulls = append(a.nulls[:0], nulls...)
	a.sinceRederive = sinceRederive
	a.lastShiftDB = lastShiftDB
	a.mon = monitor
	h.ProfileShiftDB = a.lp.ShiftDB()
	h.Refreshes = a.lp.Refreshes()
	h.Threshold = threshold
	a.health = h
	a.pub.publish(a.health)
	return nil
}

// Restore rebuilds an adapter — and the detector it drives — from a snapshot
// produced by AppendBinary. cfg must be the link's scoring configuration:
// the profile record is decoded against it (core.UnmarshalLinkProfile), so
// a record whose grid, array or scheme does not fit cfg is
// core.ErrBadSnapshot. The persisted rolling null scores are re-fitted into
// the null window, keeping the newest.
func Restore(cfg core.Config, blob []byte) (*Adapter, *core.Detector, error) {
	r := binio.NewReader(blob)
	if m := r.U32(); r.Err() == nil && m != adapterMagic {
		return nil, nil, fmt.Errorf("magic %#x: %w", m, ErrBadSnapshot)
	}
	if v := r.U16(); r.Err() == nil && v != adapterVersion {
		return nil, nil, fmt.Errorf("version %d (want %d): %w", v, adapterVersion, ErrBadSnapshot)
	}
	lpBlob := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	lp, err := core.UnmarshalLinkProfile(cfg, lpBlob)
	if err != nil {
		return nil, nil, fmt.Errorf("restore profile: %w", err)
	}
	threshold := r.F64()
	baseThr := r.F64()
	nulls := r.F64s()
	sinceRederive := int(r.I64())
	lastShiftDB := r.F64()
	mon := readDriftState(r)
	h := readHealth(r)
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}

	det, err := core.NewDetector(cfg, lp.Original())
	if err != nil {
		return nil, nil, fmt.Errorf("restore detector: %w", err)
	}
	if err := det.SetProfile(lp.Current()); err != nil {
		return nil, nil, fmt.Errorf("restore detector: %w", err)
	}
	det.SetThreshold(threshold)
	monitor, err := core.RestoreDriftMonitor(mon)
	if err != nil {
		return nil, nil, fmt.Errorf("restore drift monitor: %w", err)
	}

	if len(nulls) > nullWindow {
		nulls = nulls[len(nulls)-nullWindow:]
	}
	ring := make([]float64, 0, nullWindow)
	ring = append(ring, nulls...)

	h.ProfileShiftDB = lp.ShiftDB()
	h.Refreshes = lp.Refreshes()
	h.Threshold = threshold
	a := &Adapter{
		det:           det,
		lp:            lp,
		mon:           monitor,
		sc:            core.NewScratch(),
		nulls:         ring,
		baseThr:       baseThr,
		health:        h,
		sinceRederive: sinceRederive,
		lastShiftDB:   lastShiftDB,
	}
	a.pub.publish(a.health)
	return a, det, nil
}
