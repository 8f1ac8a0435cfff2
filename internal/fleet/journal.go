package fleet

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mlink/internal/binio"
	"mlink/internal/core"
	"mlink/internal/engine"
)

// journalFileName is the append-only journal inside a journal directory;
// the compacted per-link snapshots sit next to it.
const journalFileName = "journal.mlwal"

// snapshotExt is the extension of a compacted per-link snapshot file.
const snapshotExt = ".mlprofile"

// snapshotPath returns the compacted snapshot file of a link in dir: one
// full ExportLink-format record, named by the URL-escaped link ID.
func snapshotPath(dir, linkID string) string {
	return filepath.Join(dir, url.PathEscape(linkID)+snapshotExt)
}

// ErrRunning reports a Restore attempted while the engine is running (or
// mid-calibration): restore into a stopped engine. Wraps engine.ErrRunning,
// so callers may test against either sentinel.
var ErrRunning = fmt.Errorf("fleet: persistence needs a stopped engine (%w)", engine.ErrRunning)

// Journal record kinds: a full record is a complete ExportLink snapshot (the
// base), a delta is the adapter's absolute mutable state as of one scored
// window (applied onto the latest base). Within one link's record stream,
// latest-full-then-latest-delta-after-it reconstructs the link exactly.
const (
	kindFull  byte = 1
	kindDelta byte = 2
)

// journalFS abstracts the journal's filesystem touchpoints so the crash
// harness can inject failures and kills at any write boundary; osFS is the
// production implementation.
type journalFS interface {
	MkdirAll(dir string) error
	ReadFile(path string) ([]byte, error)
	// WriteFileAtomic replaces path via temp-file-and-rename: observers see
	// either the old content or the new, never a prefix.
	WriteFileAtomic(path string, data []byte) error
	OpenAppend(path string) (journalHandle, error)
}

// journalHandle is an open append-mode journal file.
type journalHandle interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (osFS) WriteFileAtomic(p string, d []byte) error { return writeFileAtomic(p, d) }
func (osFS) OpenAppend(path string) (journalHandle, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// writeFileAtomic writes via a same-directory temp file and rename, so a
// crash mid-write leaves the previous intact file rather than a truncated
// one that would hard-fail the next startup's Restore.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// JournalConfig parameterizes a Journal.
type JournalConfig struct {
	// SyncEvery is the fsync cadence (default 1s): a crash loses at most the
	// records appended since the last tick, plus that tick's fsync time.
	// Shorter bounds loss tighter at the cost of more fsyncs; the emission
	// path never blocks on the disk either way.
	SyncEvery time.Duration
	// compactBytes triggers compaction — full records rewritten as per-link
	// snapshot files, the journal rewritten with only the latest deltas — once the
	// journal grows past it: defaultCompactBytes when zero, and negative
	// disables compaction entirely, including the final one at Close. Only
	// the package's tests set it, to force compactions or to rule them out.
	compactBytes int64
}

// defaultCompactBytes is the journal size that triggers compaction: 4 MiB.
// Compaction rewrites every link's snapshot, so it should run rarely; a
// restart replays at most this much journal.
const defaultCompactBytes = 4 << 20

func (c JournalConfig) withDefaults() JournalConfig {
	if c.SyncEvery <= 0 {
		c.SyncEvery = time.Second
	}
	if c.compactBytes == 0 {
		c.compactBytes = defaultCompactBytes
	}
	return c
}

// latestRec is one link's most recent journaled state: the latest full
// record not yet compacted into a snapshot file (empty once it has been),
// and the latest delta after it. Buffers are reused across absorptions, so
// the steady-state syncer allocates nothing.
type latestRec struct {
	full  []byte
	delta []byte
}

// Journal is crash-safe online persistence for a running engine: an
// append-only, CRC-framed record log (see binio's journal framing) that
// the engine emits full link records and per-window deltas into, made
// durable by a background syncer on a configurable cadence and periodically
// compacted into per-link snapshot files next to the journal.
//
// The write path never touches the disk or the journal mutex: the engine
// serializes its appends, in global emission order, into a journalWriter's
// one buffer, which the syncer swaps for an empty spare on every SyncEvery
// tick and whenever it reaches drainBytes. So the scoring path allocates
// nothing and never waits on the disk, and a record is durable at the
// first fsync after its append. Because the file preserves emission order,
// every durable prefix is a cut the fleet actually passed through. A crash
// (or kill) at any byte loses at most the records since the last sync;
// reopening detects the torn tail by CRC, truncates it, and resumes the
// walked baselines bit-for-bit from the surviving prefix.
type Journal struct {
	dir  string
	path string
	cfg  JournalConfig
	fs   journalFS

	// broken makes every writer's append a no-op once the journal has
	// failed or closed — shards check it lock-free.
	broken atomic.Bool

	mu       sync.Mutex
	f        journalHandle
	size     int64
	unsynced bool // written since the last fsync
	latest   map[string]*latestRec
	writers  []*journalWriter
	spare    []byte // empty buffer the next drain swaps into a writer
	failed   error
	cbuf     []byte // compaction scratch

	absorbFn  func([]byte) error
	kick      chan struct{} // a writer reached drainBytes
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// OpenJournal opens (or creates) the journal in dir, recovering from
// whatever a previous session — cleanly closed or killed mid-write — left
// behind: a torn tail is detected via the record CRCs and truncated, and
// the surviving records seed the in-memory state that Restore replays. A
// journal whose header belongs to a different format or version is refused
// rather than clobbered. The returned Journal is ready to Restore into an
// engine and to be installed with engine.SetJournal.
func OpenJournal(dir string, cfg JournalConfig) (*Journal, error) {
	return openJournal(dir, cfg, osFS{})
}

func openJournal(dir string, cfg JournalConfig, fs journalFS) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("fleet: journal has no directory")
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("fleet journal: %w", err)
	}
	j := &Journal{
		dir:    dir,
		path:   filepath.Join(dir, journalFileName),
		cfg:    cfg.withDefaults(),
		fs:     fs,
		latest: make(map[string]*latestRec),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	j.absorbFn = j.absorb

	data, err := fs.ReadFile(j.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("fleet journal: %w", err)
	}
	if len(data) < binio.JournalHeaderLen {
		// Missing, empty, or torn mid-header: no record was ever durable, so
		// start a fresh journal (atomically, so a crash here is the same case
		// again next time).
		if err := fs.WriteFileAtomic(j.path, binio.AppendJournalHeader(nil)); err != nil {
			return nil, fmt.Errorf("fleet journal: %w", err)
		}
		j.size = binio.JournalHeaderLen
	} else {
		region, err := binio.CheckJournalHeader(data)
		if err != nil {
			// Full header, wrong magic or version: refuse — this build must
			// not destroy a file it cannot interpret.
			return nil, fmt.Errorf("fleet journal %s: %w", j.path, err)
		}
		clean, err := binio.ScanJournal(region, j.absorbFn)
		switch {
		case errors.Is(err, binio.ErrTornRecord):
			// Crash residue after the clean prefix: truncate it atomically so
			// this session's appends land on intact framing.
			if werr := fs.WriteFileAtomic(j.path, data[:binio.JournalHeaderLen+clean]); werr != nil {
				return nil, fmt.Errorf("fleet journal truncate: %w", werr)
			}
		case err != nil:
			// A record that passed its CRC but does not parse is not crash
			// damage — it is a format problem. Refuse rather than guess.
			return nil, fmt.Errorf("fleet journal %s: %w", j.path, err)
		}
		j.size = int64(binio.JournalHeaderLen + clean)
	}
	f, err := fs.OpenAppend(j.path)
	if err != nil {
		return nil, fmt.Errorf("fleet journal: %w", err)
	}
	j.f = f
	go j.syncLoop()
	return j, nil
}

// parseJournalPayload splits one journal record payload into kind, link ID
// and blob. The returned slices alias payload.
func parseJournalPayload(payload []byte) (kind byte, id, blob []byte, err error) {
	r := binio.NewReader(payload)
	kind = r.U8()
	id = r.Bytes()
	blob = r.Bytes()
	if err := r.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("fleet journal record: %w", err)
	}
	if kind != kindFull && kind != kindDelta {
		return 0, nil, nil, fmt.Errorf("fleet journal record kind %d: %w", kind, binio.ErrBadJournal)
	}
	return kind, id, blob, nil
}

// absorb folds one record into the latest map. A full record supersedes any
// delta before it (deltas are absolute, but relative to their base); a
// delta replaces the previous delta. Reuses per-link buffers, so the
// steady-state syncer does not allocate.
func (j *Journal) absorb(payload []byte) error {
	kind, id, blob, err := parseJournalPayload(payload)
	if err != nil {
		return err
	}
	rec := j.latest[string(id)]
	if rec == nil {
		rec = &latestRec{}
		j.latest[string(id)] = rec
	}
	switch kind {
	case kindFull:
		rec.full = append(rec.full[:0], blob...)
		rec.delta = rec.delta[:0]
	case kindDelta:
		rec.delta = append(rec.delta[:0], blob...)
	}
	return nil
}

// NewWriter hands out an emission endpoint (engine.JournalSink). The
// engine creates one per installed sink and serializes its own appends to
// it, so records reach the file in emission order.
func (j *Journal) NewWriter() engine.JournalWriter {
	w := &journalWriter{j: j}
	j.mu.Lock()
	j.writers = append(j.writers, w)
	j.mu.Unlock()
	return w
}

// Restore replays the journal into a stopped engine: for every registered
// link with journaled state, the latest full record (from the journal, or
// from the compacted snapshot in the same directory) is imported and the
// latest delta after it applied, leaving the link bit-for-bit where the
// last synced window put it. Links with no journaled state are left
// untouched — calibrate them with Engine.CalibrateMissing — and so are links
// whose record was written under another configuration: a profile for
// another grid, array or scheme (core.ErrConfigMismatch), or an adaptive
// record in an engine without adaptation (engine.ErrNotAdaptive). A record
// that does not decode is an error wrapping engine.ErrBadRecord or
// core.ErrBadSnapshot: recalibrating over it would hide the corruption. A
// directory holding only snapshot files and no journal restores from the
// snapshots alone. Returns the IDs restored.
func (j *Journal) Restore(eng *engine.Engine) ([]string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var restored []string
	for _, id := range eng.Links() {
		rec := j.latest[id]
		var full []byte
		if rec != nil && len(rec.full) > 0 {
			full = rec.full
		} else {
			data, err := j.fs.ReadFile(snapshotPath(j.dir, id))
			switch {
			case errors.Is(err, os.ErrNotExist):
				if rec != nil && len(rec.delta) > 0 {
					// A delta with no base anywhere means the base was lost —
					// compaction cannot produce this state, so refuse loudly.
					return restored, fmt.Errorf("fleet journal: link %s has a delta but no base record: %w", id, binio.ErrBadJournal)
				}
				continue
			case err != nil:
				return restored, fmt.Errorf("fleet journal: %w", err)
			}
			full = data
		}
		if err := eng.ImportLink(id, full); err != nil {
			switch {
			case errors.Is(err, engine.ErrRunning):
				return restored, ErrRunning
			case errors.Is(err, core.ErrConfigMismatch), errors.Is(err, engine.ErrNotAdaptive):
				continue // recorded under another configuration: recalibrate
			}
			return restored, fmt.Errorf("fleet journal: %w", err)
		}
		if rec != nil && len(rec.delta) > 0 {
			if err := eng.ApplyLinkDelta(id, rec.delta); err != nil {
				return restored, fmt.Errorf("fleet journal: %w", err)
			}
		}
		restored = append(restored, id)
	}
	return restored, nil
}

// syncLoop is the background syncer: a kick writes the writers' buffers
// out, and every cadence tick also fsyncs and compacts if the journal has
// outgrown its budget.
func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(j.cfg.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-j.kick:
			j.mu.Lock()
			j.writeLocked()
			j.mu.Unlock()
		case <-t.C:
			j.drain()
		}
	}
}

// drain is the syncing drain of the cadence tick and writer Flush.
func (j *Journal) drain() {
	j.mu.Lock()
	j.drainLocked()
	j.mu.Unlock()
}

// drainLocked writes the writers' buffers out, fsyncs if anything was
// written since the last fsync, and compacts once the journal has outgrown
// its budget.
func (j *Journal) drainLocked() {
	j.writeLocked()
	if j.broken.Load() {
		return
	}
	if j.unsynced {
		if err := j.f.Sync(); err != nil {
			j.fail(fmt.Errorf("fleet journal sync: %w", err))
			return
		}
		j.unsynced = false
	}
	if j.cfg.compactBytes > 0 && j.size >= j.cfg.compactBytes {
		j.compactLocked()
	}
}

// writeLocked takes every writer's buffer, leaving the empty spare in its
// place, and appends it to the file with no writer lock held; the emptied
// buffer becomes the next spare. A failed or closed journal writes nothing.
func (j *Journal) writeLocked() {
	for _, w := range j.writers {
		if j.broken.Load() {
			return
		}
		w.mu.Lock()
		buf := w.b
		w.b = j.spare
		w.mu.Unlock()
		if len(buf) > 0 {
			// Absorb before writing: the latest map must cover every record
			// the file may contain, or a compaction could drop state that
			// an incomplete append made durable.
			if _, err := binio.ScanJournal(buf, j.absorbFn); err != nil {
				j.fail(err)
				return
			}
			if _, err := j.f.Write(buf); err != nil {
				j.fail(fmt.Errorf("fleet journal append: %w", err))
				return
			}
			j.size += int64(len(buf))
			j.unsynced = true
		}
		j.spare = buf[:0]
	}
}

// compactLocked rewrites the journal's accumulated state as per-link
// snapshot files plus a minimal journal holding only the latest deltas. Crash
// safety comes from ordering alone: snapshots are written (each atomically)
// before the journal is atomically replaced, so a kill at any point leaves
// either the old journal (whose records supersede the snapshots they were
// compacted into) or the new one (whose deltas apply onto the snapshots
// just written) — never a state that replays wrong.
func (j *Journal) compactLocked() {
	for id, rec := range j.latest {
		if len(rec.full) == 0 {
			continue
		}
		if err := j.fs.WriteFileAtomic(snapshotPath(j.dir, id), rec.full); err != nil {
			j.fail(fmt.Errorf("fleet journal compact: %w", err))
			return
		}
	}
	b := binio.AppendJournalHeader(j.cbuf[:0])
	for id, rec := range j.latest {
		if len(rec.delta) == 0 {
			continue
		}
		var mark int
		b, mark = binio.BeginJournalRecord(b)
		b = append(b, kindDelta)
		b = binio.AppendString(b, id)
		b = binio.AppendBytes(b, rec.delta)
		b = binio.EndJournalRecord(b, mark)
	}
	j.cbuf = b
	if err := j.fs.WriteFileAtomic(j.path, b); err != nil {
		j.fail(fmt.Errorf("fleet journal compact: %w", err))
		return
	}
	if err := j.f.Close(); err != nil {
		j.fail(fmt.Errorf("fleet journal compact: %w", err))
		return
	}
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		j.fail(fmt.Errorf("fleet journal compact: %w", err))
		return
	}
	j.f = f
	j.size = int64(len(b))
	for _, rec := range j.latest {
		rec.full = rec.full[:0]
	}
}

// fail records the journal's first error and stops all writing — sticky, so
// a failed journal never half-writes its way into an inconsistent file.
func (j *Journal) fail(err error) {
	if j.failed == nil {
		j.failed = err
	}
	j.broken.Store(true)
}

// Err reports the journal's sticky failure (nil while healthy). Once set,
// the journal has stopped writing: the on-disk state is the last
// successfully synced prefix, exactly what a crash at that moment would
// have left.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Close stops the syncer, drains what the writers hold, compacts
// (unless disabled or already failed) so the directory ends as plain
// per-link snapshots plus a minimal journal, and closes the file. Idempotent.
// Detach the journal from the engine (SetJournal(nil)) first; appends to a
// closed journal are silently dropped.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() {
		close(j.stop)
		<-j.done
		j.mu.Lock()
		j.drainLocked()
		if j.failed == nil && j.cfg.compactBytes >= 0 {
			j.compactLocked()
		}
		j.broken.Store(true)
		if j.f != nil {
			if err := j.f.Close(); err != nil && j.failed == nil {
				j.failed = fmt.Errorf("fleet journal close: %w", err)
			}
			j.f = nil
		}
		j.closeErr = j.failed
		j.mu.Unlock()
	})
	return j.closeErr
}

// drainBytes is the writer buffer size at which an append kicks the
// syncer to write the buffer out ahead of the next tick: it bounds the
// records held in memory, not the fsync cadence.
const drainBytes = 64 << 10

// journalWriter is the engine's emission endpoint: one buffer of framed
// records. The engine serializes appends; mu only covers the syncer's swap
// of the buffer for an empty one, so an append waits at most for that swap
// and never for the disk. Once the buffer and the journal's spare have
// grown to their high-water mark, appends allocate nothing.
type journalWriter struct {
	j  *Journal
	mu sync.Mutex
	b  []byte
}

func (w *journalWriter) AppendFull(linkID string, record []byte) { w.append(kindFull, linkID, record) }
func (w *journalWriter) AppendDelta(linkID string, record []byte) {
	w.append(kindDelta, linkID, record)
}

func (w *journalWriter) append(kind byte, id string, blob []byte) {
	if w.j.broken.Load() {
		return
	}
	w.mu.Lock()
	b, mark := binio.BeginJournalRecord(w.b)
	b = append(b, kind)
	b = binio.AppendString(b, id)
	b = binio.AppendBytes(b, blob)
	w.b = binio.EndJournalRecord(b, mark)
	full := len(w.b) >= drainBytes
	w.mu.Unlock()
	if full {
		select {
		case w.j.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
}

// Flush synchronously writes and fsyncs everything buffered (engine shards
// call it on their way out of a Run). A failed journal writes nothing: the
// sticky error already marks the loss.
func (w *journalWriter) Flush() { w.j.drain() }
