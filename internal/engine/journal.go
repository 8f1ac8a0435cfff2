package engine

// JournalWriter receives the fleet's stream of records during Run. The
// engine uses one writer per sink and serializes appends to it (see
// Engine.jmu), so the writer sees records in global emission order from one
// caller at a time — the order a sink can persist wholesale and still offer
// cut-consistent crash recovery (any durable prefix is a state the fleet
// actually passed through). Appends run on the scoring path under
// Engine.jmu, so they must not wait on the disk; the implementation guards
// only what it shares with its own sink's drain side (the fleet journal's
// syncer takes the writer's whole buffer under a writer mutex).
//
// The record slices are only valid for the duration of the call — the link
// reuses its buffer for the next record — so an implementation that retains
// them must copy.
type JournalWriter interface {
	// AppendFull records a complete ExportLink-format snapshot of a link.
	// Emitted at the first scored window after (re)calibration, import, or
	// journal attach — the base every subsequent delta applies against.
	AppendFull(linkID string, record []byte)
	// AppendDelta records an adapter delta (adapt.Adapter.AppendDelta):
	// the link's absolute mutable state as of the window just scored.
	AppendDelta(linkID string, record []byte)
	// Flush makes every buffered record durable before it returns. Called
	// when a link retires and again at the end of Run, so a finished run's
	// last windows never wait for the sink's next sync.
	Flush()
}

// JournalSink makes JournalWriters — the factory the fleet journal
// implements. The engine calls NewWriter once per installed sink, under the
// engine mutex at Run start.
type JournalSink interface {
	NewWriter() JournalWriter
}

// SetJournal installs (or, with nil, removes) the journal sink. From the
// next Run on, every link's full records and per-window deltas are emitted
// into a writer obtained from the sink. Rejected while Run or a
// calibration is active: the sink swap must not race shards already
// appending.
//
// Installing a sink marks every link for a fresh full record at its first
// scored window, so the journal is self-contained from the moment it is
// attached — no delta ever lands without a base in the same journal.
func (e *Engine) SetJournal(sink JournalSink) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running || e.calibrating {
		return ErrRunning
	}
	e.journal = sink
	e.jw = nil
	for _, l := range e.links {
		l.needFull = true
	}
	return nil
}
