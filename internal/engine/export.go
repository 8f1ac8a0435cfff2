package engine

import (
	"fmt"

	"mlink/internal/adapt"
	"mlink/internal/binio"
	"mlink/internal/core"
)

// linkRecordMagic marks a serialized link record ("MLNK"); linkRecordVersion
// tags the layout.
const (
	linkRecordMagic   uint32 = 0x4D4C4E4B
	linkRecordVersion uint16 = 1
)

// ErrBadRecord reports a persisted link record that cannot be decoded or
// does not belong to the link it is being imported onto.
var ErrBadRecord = fmt.Errorf("engine: bad link record")

// ExportLink serializes one calibrated link's full monitoring state — the
// characterized quality weight, decision threshold, and either the static
// profile (frozen links) or the adapter's walked baseline, rolling windows
// and health (adaptive links) — as a versioned binary record, the layout
// of the journal's full records and snapshot files. Production persists
// through the journal (SetJournal); ExportLink is the record oracle the
// engine and fleet suites compare restored state against.
//
// Rejected while Run or a calibration is active: the exported state must be
// a quiescent snapshot, not a moving target.
func (e *Engine) ExportLink(linkID string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.byID[linkID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if e.running || e.calibrating {
		return nil, ErrRunning
	}
	if l.det == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotCalibrated, linkID)
	}
	record, err := appendLinkRecord(nil, l)
	if err != nil {
		return nil, fmt.Errorf("link %s: %w", linkID, err)
	}
	return record, nil
}

// appendLinkRecord serializes a calibrated link's full record into dst —
// the one layout shared by ExportLink and the journal's full records, built
// with reserve-and-patch framing so a shard with a warmed buffer emits
// without allocating. The caller must hold the link quiescent (the engine
// mutex offline, shard ownership during Run).
func appendLinkRecord(dst []byte, l *link) ([]byte, error) {
	dst = binio.AppendU32(dst, linkRecordMagic)
	dst = binio.AppendU16(dst, linkRecordVersion)
	dst = binio.AppendString(dst, l.id)
	dst = binio.AppendF64(dst, l.meanMu)
	adapter := l.adapter.Load()
	dst = binio.AppendBool(dst, adapter != nil)
	var (
		mark int
		err  error
	)
	if adapter != nil {
		dst, mark = binio.ReserveLen(dst)
		if dst, err = adapter.AppendBinary(dst); err != nil {
			return nil, err
		}
		return binio.PatchLen(dst, mark), nil
	}
	dst = binio.AppendF64(dst, l.det.Threshold())
	dst, mark = binio.ReserveLen(dst)
	if dst, err = l.det.Profile().AppendBinary(dst); err != nil {
		return nil, err
	}
	return binio.PatchLen(dst, mark), nil
}

// ImportLink restores a link from a record produced by ExportLink: the
// detector (and, for adaptive records, the adapter with its walked baseline
// and drift state) is rebuilt exactly as exported, so the link's next
// windows score as if the original engine had never stopped and no
// recalibration is needed. The link must already be registered under the
// same ID with the same scoring config, and the record must match the
// engine's adaptation setting: an adaptive record in an engine without a
// policy fails with ErrNotAdaptive, and a frozen record in an engine with
// one with core.ErrConfigMismatch, since restoring it frozen would leave
// the link unadapted until a recalibration. Rejected while Run or a
// calibration is active.
func (e *Engine) ImportLink(linkID string, record []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.byID[linkID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if e.running || e.calibrating {
		return ErrRunning
	}
	r := binio.NewReader(record)
	if m := r.U32(); r.Err() == nil && m != linkRecordMagic {
		return fmt.Errorf("%w: magic %#x", ErrBadRecord, m)
	}
	if v := r.U16(); r.Err() == nil && v != linkRecordVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadRecord, v, linkRecordVersion)
	}
	recordedID := string(r.Bytes())
	meanMu := r.F64()
	adaptive := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("link %s: %w (%w)", linkID, ErrBadRecord, err)
	}
	if recordedID != linkID {
		return fmt.Errorf("%w: record for link %q imported onto %q", ErrBadRecord, recordedID, linkID)
	}

	if adaptive {
		if e.cfg.Adaptation == nil {
			return fmt.Errorf("link %s: adaptive record without an adaptation policy: %w", linkID, ErrNotAdaptive)
		}
		blob := r.Bytes()
		if err := r.Done(); err != nil {
			return fmt.Errorf("link %s: %w (%w)", linkID, ErrBadRecord, err)
		}
		adapter, det, err := adapt.Restore(l.cfg, blob)
		if err != nil {
			return fmt.Errorf("link %s: %w", linkID, err)
		}
		l.det = det
		l.adapter.Store(adapter)
		l.meanMu = meanMu
		l.needFull = true
		l.state.publishCalibration(meanMu, det.Threshold(), true, adapter.Health())
		return nil
	}

	if e.cfg.Adaptation != nil {
		return fmt.Errorf("link %s: frozen record in an adaptive engine: %w", linkID, core.ErrConfigMismatch)
	}
	threshold := r.F64()
	blob := r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("link %s: %w (%w)", linkID, ErrBadRecord, err)
	}
	profile, err := core.UnmarshalProfile(l.cfg, blob)
	if err != nil {
		return fmt.Errorf("link %s: %w", linkID, err)
	}
	det, err := core.NewDetector(l.cfg, profile)
	if err != nil {
		return fmt.Errorf("link %s: %w", linkID, err)
	}
	det.SetThreshold(threshold)
	l.det = det
	l.adapter.Store(nil)
	l.meanMu = meanMu
	l.needFull = true
	l.state.publishCalibration(meanMu, threshold, false, adapt.Health{})
	return nil
}

// ApplyLinkDelta replays one journal delta (adapt.Adapter.AppendDelta) onto
// a restored adaptive link, replacing the adapter's whole mutable state —
// the recovery step that advances an imported full record to the last
// journaled window. The link must already be calibrated (normally via
// ImportLink of the full record the delta was emitted against) and
// adaptive; a corrupt delta leaves the link untouched. Rejected while Run
// or a calibration is active.
func (e *Engine) ApplyLinkDelta(linkID string, delta []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.byID[linkID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, linkID)
	}
	if e.running || e.calibrating {
		return ErrRunning
	}
	if l.det == nil {
		return fmt.Errorf("%w: %s", ErrNotCalibrated, linkID)
	}
	ad := l.adapter.Load()
	if ad == nil {
		return fmt.Errorf("link %s: %w", linkID, ErrNotAdaptive)
	}
	if err := ad.ApplyDelta(delta); err != nil {
		return fmt.Errorf("link %s: %w", linkID, err)
	}
	h := ad.Health()
	l.state.publishCalibration(l.meanMu, h.Threshold, true, h)
	return nil
}
