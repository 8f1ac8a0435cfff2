package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/binio"
	"mlink/internal/core"
	"mlink/internal/engine"
	"mlink/internal/scenario"
)

// ---------------------------------------------------------------------------
// Harness pieces
// ---------------------------------------------------------------------------

// logRec is one recorded journal emission.
type logRec struct {
	kind byte
	id   string
	blob []byte
}

// frameSize is the record's framed byte length in the journal file.
func (r logRec) frameSize() int { return 8 + 1 + 4 + len(r.id) + 4 + len(r.blob) }

// teeSink records every emitted record (in emission order) while forwarding
// to an inner sink — the ground truth the crash properties are checked
// against. With Workers=1 there is a single emitting shard, so the log
// order is exactly the journal file's record order.
type teeSink struct {
	inner engine.JournalSink
	mu    sync.Mutex
	log   []logRec
}

func (s *teeSink) NewWriter() engine.JournalWriter {
	w := &teeWriter{s: s}
	if s.inner != nil {
		w.inner = s.inner.NewWriter()
	}
	return w
}

func (s *teeSink) add(kind byte, id string, blob []byte) {
	s.mu.Lock()
	s.log = append(s.log, logRec{kind: kind, id: id, blob: append([]byte(nil), blob...)})
	s.mu.Unlock()
}

func (s *teeSink) records() []logRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]logRec(nil), s.log...)
}

type teeWriter struct {
	s     *teeSink
	inner engine.JournalWriter
}

func (w *teeWriter) AppendFull(id string, rec []byte) {
	w.s.add(kindFull, id, rec)
	if w.inner != nil {
		w.inner.AppendFull(id, rec)
	}
}

func (w *teeWriter) AppendDelta(id string, rec []byte) {
	w.s.add(kindDelta, id, rec)
	if w.inner != nil {
		w.inner.AppendDelta(id, rec)
	}
}

func (w *teeWriter) Flush() {
	if w.inner != nil {
		w.inner.Flush()
	}
}

// journalFileBytes renders the exact journal file a clean single-shard run
// produces from a record log prefix.
func journalFileBytes(log []logRec) []byte {
	b := binio.AppendJournalHeader(nil)
	for _, r := range log {
		var mark int
		b, mark = binio.BeginJournalRecord(b)
		b = append(b, r.kind)
		b = binio.AppendString(b, r.id)
		b = binio.AppendBytes(b, r.blob)
		b = binio.EndJournalRecord(b, mark)
	}
	return b
}

// driftFixture builds a deterministic adaptive drift fleet: Workers=1 (one
// emitting shard — record order is total), GainWalk so baselines are
// actively walking and profiles and thresholds move.
func driftFixture(t testing.TB, nLinks int) *engine.Engine {
	t.Helper()
	pol := adapt.Policy{}
	e := engine.New(engine.Config{Workers: 1, WindowSize: 25, Adaptation: &pol})
	for i := 0; i < nLinks; i++ {
		s, err := scenario.LinkCase(i+2, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := s.NewDriftStream(scenario.GainWalk(8), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddLink(fmt.Sprintf("l%d", i), core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets()), stream); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// journaledDriftRun runs a journaled drift fleet to completion and returns
// the emission log, the final per-link exports, and the journal directory
// (journal closed, compaction disabled so the file holds every record).
func journaledDriftRun(t *testing.T, nLinks, windows int) ([]logRec, map[string][]byte, string) {
	t.Helper()
	dir := t.TempDir()
	eng := driftFixture(t, nLinks)
	if err := eng.Calibrate(context.Background(), 150); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(dir, JournalConfig{SyncEvery: time.Millisecond, compactBytes: -1}, osFS{})
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeSink{inner: j}
	if err := eng.SetJournal(tee); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background(), windows); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	exports := make(map[string][]byte)
	for _, id := range eng.Links() {
		rec, err := eng.ExportLink(id)
		if err != nil {
			t.Fatal(err)
		}
		exports[id] = rec
	}
	return tee.records(), exports, dir
}

// expectedStates reconstructs, per link, the state a clean replay of
// log[:k] must produce: the latest full record with the latest delta after
// it applied, re-exported. recon is a reusable registered-but-uncalibrated
// fixture engine (imports overwrite, so reuse across prefixes is safe).
func expectedStates(t *testing.T, recon *engine.Engine, log []logRec) map[string][]byte {
	t.Helper()
	type pair struct{ full, delta []byte }
	byLink := map[string]*pair{}
	for _, r := range log {
		p := byLink[r.id]
		if p == nil {
			p = &pair{}
			byLink[r.id] = p
		}
		switch r.kind {
		case kindFull:
			p.full = r.blob
			p.delta = nil
		case kindDelta:
			p.delta = r.blob
		}
	}
	out := make(map[string][]byte, len(byLink))
	for id, p := range byLink {
		if p.full == nil {
			if p.delta != nil {
				t.Fatalf("link %s: delta before any full record", id)
			}
			continue
		}
		if err := recon.ImportLink(id, p.full); err != nil {
			t.Fatal(err)
		}
		if p.delta != nil {
			if err := recon.ApplyLinkDelta(id, p.delta); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := recon.ExportLink(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = rec
	}
	return out
}

// ---------------------------------------------------------------------------
// Tentpole property 1: kills at every record boundary
// ---------------------------------------------------------------------------

// TestJournalCrashRecoveryAtRecordBoundaries injects a kill after every
// record of a real journaled drift run and proves recovery is bit-exact:
// reopening a journal truncated to any record boundary restores, for every
// link, state byte-identical to replaying exactly that prefix of the
// emitted record stream — and the complete journal restores state
// byte-identical to the uninterrupted engine's final export.
func TestJournalCrashRecoveryAtRecordBoundaries(t *testing.T) {
	const nLinks, windows = 2, 12
	log, finalExports, dir := journaledDriftRun(t, nLinks, windows)
	if len(log) < nLinks*(windows+1) {
		t.Fatalf("only %d records emitted", len(log))
	}

	// The closed journal file must be exactly the emitted record stream.
	file, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, journalFileBytes(log)) {
		t.Fatal("journal file does not equal the framed emission log")
	}

	recon := driftFixture(t, nLinks)    // rebuilds expected states from log prefixes
	restored := driftFixture(t, nLinks) // restore target, reused across prefixes
	crashDir := t.TempDir()
	for k := 0; k <= len(log); k++ {
		if err := os.WriteFile(filepath.Join(crashDir, journalFileName), journalFileBytes(log[:k]), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := openJournal(crashDir, JournalConfig{compactBytes: -1}, osFS{})
		if err != nil {
			t.Fatalf("prefix %d: open: %v", k, err)
		}
		ids, err := j.Restore(restored)
		if err != nil {
			t.Fatalf("prefix %d: restore: %v", k, err)
		}
		want := expectedStates(t, recon, log[:k])
		if len(ids) != len(want) {
			t.Fatalf("prefix %d: restored %v, want %d links", k, ids, len(want))
		}
		for _, id := range ids {
			got, err := restored.ExportLink(id)
			if err != nil {
				t.Fatalf("prefix %d: export %s: %v", k, id, err)
			}
			if !bytes.Equal(got, want[id]) {
				t.Fatalf("prefix %d: link %s recovered state differs from clean prefix replay", k, id)
			}
			if k == len(log) && !bytes.Equal(got, finalExports[id]) {
				t.Fatalf("link %s: full-journal recovery differs from the uninterrupted engine", id)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("prefix %d: close: %v", k, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Tentpole property 2: kills at byte boundaries
// ---------------------------------------------------------------------------

// byteSweepCuts picks the kill offsets for a byte-level sweep of a real
// journal file: every byte through the header and the first frame words,
// every record boundary ±{1, 4}, and a prime-stride sample across the rest.
// (binio's TestJournalEveryBytePrefix covers literally every byte of a
// journal exhaustively at the framing layer; this sweeps the same property
// through the full open-recover-append stack, where each kill point costs a
// real reopen and fsync.)
func byteSweepCuts(log []logRec, fileLen int) []int {
	cutset := map[int]struct{}{}
	add := func(c int) {
		if c >= 0 && c <= fileLen {
			cutset[c] = struct{}{}
		}
	}
	for c := 0; c <= binio.JournalHeaderLen+64; c++ {
		add(c)
	}
	off := binio.JournalHeaderLen
	for _, r := range log {
		off += r.frameSize()
		for _, d := range []int{-4, -1, 0, 1, 4} {
			add(off + d)
		}
	}
	for c := 0; c < fileLen; c += 499 {
		add(c)
	}
	cuts := make([]int, 0, len(cutset))
	for c := range cutset {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	return cuts
}

// TestJournalByteBoundaryRecovery kills a real journaled drift run at byte
// granularity: for each cut the reopened journal must hold exactly the
// records fully durable before the kill, the torn tail must be truncated
// from the file, and the recovered journal must accept and persist fresh
// appends — never panicking, never corrupting the next session.
func TestJournalByteBoundaryRecovery(t *testing.T) {
	log, _, _ := journaledDriftRun(t, 1, 6)
	file := journalFileBytes(log)

	// boundaries[k] = file offset where record k's frame ends.
	boundaries := []int{binio.JournalHeaderLen}
	for _, r := range log {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+r.frameSize())
	}

	dir := t.TempDir()
	path := filepath.Join(dir, journalFileName)
	probe := []byte("post-crash probe record")
	for _, cut := range byteSweepCuts(log, len(file)) {
		if err := os.WriteFile(path, file[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := openJournal(dir, JournalConfig{SyncEvery: time.Hour, compactBytes: -1}, osFS{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// Records that were fully durable before the kill survive — exactly
		// those, never a torn or invented one.
		kept := 0
		for k, end := range boundaries {
			if end <= cut && k > 0 {
				kept = k
			}
		}
		if cut < binio.JournalHeaderLen {
			kept = 0 // torn header: rebuilt fresh
		}
		type pair struct{ full, delta []byte }
		want := map[string]*pair{}
		for _, r := range log[:kept] {
			p := want[r.id]
			if p == nil {
				p = &pair{}
				want[r.id] = p
			}
			switch r.kind {
			case kindFull:
				p.full, p.delta = r.blob, nil
			case kindDelta:
				p.delta = r.blob
			}
		}
		if len(j.latest) != len(want) {
			t.Fatalf("cut %d: recovered %d links, want %d", cut, len(j.latest), len(want))
		}
		for id, p := range want {
			rec := j.latest[id]
			if rec == nil {
				t.Fatalf("cut %d: link %s lost", cut, id)
			}
			if !bytes.Equal(rec.full, p.full) {
				t.Fatalf("cut %d: latest full for %s differs from the durable prefix", cut, id)
			}
			if !bytes.Equal(rec.delta, p.delta) {
				t.Fatalf("cut %d: latest delta for %s differs from the durable prefix", cut, id)
			}
		}
		// The truncated file must scan clean and end exactly at the last
		// durable boundary.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != boundaries[kept] && !(cut < binio.JournalHeaderLen && len(data) == binio.JournalHeaderLen) {
			t.Fatalf("cut %d: recovered file is %d bytes, want boundary %d", cut, len(data), boundaries[kept])
		}
		// And the next session's appends must land intact on the recovered
		// tail.
		w := j.NewWriter()
		w.AppendDelta("l0", probe)
		w.Flush()
		if err := j.Err(); err != nil {
			t.Fatalf("cut %d: post-recovery append failed: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		data, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		region, err := binio.CheckJournalHeader(data)
		if err != nil {
			t.Fatalf("cut %d: recovered+appended header: %v", cut, err)
		}
		last := []byte(nil)
		if _, err := binio.ScanJournal(region, func(p []byte) error { last = p; return nil }); err != nil {
			t.Fatalf("cut %d: recovered+appended journal does not scan: %v", cut, err)
		}
		_, _, blob, err := parseJournalPayload(last)
		if err != nil || !bytes.Equal(blob, probe) {
			t.Fatalf("cut %d: probe record did not survive (%v)", cut, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Tentpole property 3: injected write failures (crashFS)
// ---------------------------------------------------------------------------

// crashFS is the injectable journalFS: it forwards to the real filesystem
// until a byte budget runs out, then kills the process's writing mid-write —
// appends stop partway (leaving a genuinely torn tail on disk, as a real
// kill would), atomic writes vanish entirely (rename never happened), and
// everything after the kill fails.
type crashFS struct {
	budget int
	killed bool
}

func (c *crashFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (c *crashFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

var errCrashed = errors.New("crashfs: killed")

func (c *crashFS) WriteFileAtomic(path string, data []byte) error {
	if c.killed {
		return errCrashed
	}
	if len(data) > c.budget {
		// Killed before the rename: the file never changes.
		c.budget = 0
		c.killed = true
		return errCrashed
	}
	c.budget -= len(data)
	return writeFileAtomic(path, data)
}

func (c *crashFS) OpenAppend(path string) (journalHandle, error) {
	if c.killed {
		return nil, errCrashed
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &crashHandle{c: c, f: f}, nil
}

type crashHandle struct {
	c *crashFS
	f *os.File
}

func (h *crashHandle) Write(p []byte) (int, error) {
	if h.c.killed {
		return 0, errCrashed
	}
	if len(p) > h.c.budget {
		// The kill lands mid-write: a prefix reaches the disk.
		n := h.c.budget
		h.c.budget = 0
		h.c.killed = true
		if n > 0 {
			h.f.Write(p[:n])
		}
		return n, errCrashed
	}
	h.c.budget -= len(p)
	return h.f.Write(p)
}

func (h *crashHandle) Sync() error {
	if h.c.killed {
		return errCrashed
	}
	return h.f.Sync()
}

func (h *crashHandle) Close() error {
	if h.c.killed {
		h.f.Close()
		return errCrashed
	}
	return h.f.Close()
}

// TestJournalCrashInjection drives full journaled drift runs over a
// filesystem that kills writing after every interesting byte budget —
// record boundaries ±1, a stride, and budgets small enough to land inside
// compaction's snapshot and rewrite phases — and proves the recovery
// invariant each time: the reopened state is byte-identical to SOME clean
// prefix of the emitted record stream, and the recovered journal keeps
// accepting appends.
func TestJournalCrashInjection(t *testing.T) {
	const nLinks, windows = 2, 8
	// Ground truth: one uninterrupted run's emission log (the engine is
	// deterministic, so every injected run emits the same stream).
	log, _, _ := journaledDriftRun(t, nLinks, windows)

	// Precompute every clean-prefix state tuple the recovery may land on.
	recon := driftFixture(t, nLinks)
	type tuple = string // concatenated per-link exports, keyed deterministically
	validStates := map[tuple]int{}
	tupleOf := func(states map[string][]byte) tuple {
		var b bytes.Buffer
		for i := 0; i < nLinks; i++ {
			id := fmt.Sprintf("l%d", i)
			fmt.Fprintf(&b, "%d:", len(states[id]))
			b.Write(states[id])
		}
		return b.String()
	}
	for k := 0; k <= len(log); k++ {
		validStates[tupleOf(expectedStates(t, recon, log[:k]))] = k
	}

	// Byte budgets: the journal-write boundaries ±1 plus a coarse stride.
	// (The budget counts every byte the journal writes — appends, snapshot
	// compactions, journal rewrites — so with compaction enabled small
	// budgets kill inside compaction too.)
	budgets := map[int]struct{}{0: {}, 1: {}}
	off := 0
	for _, r := range log {
		off += r.frameSize()
		budgets[off-1] = struct{}{}
		budgets[off] = struct{}{}
		budgets[off+1] = struct{}{}
	}
	for b := 0; b < off; b += 16384 {
		budgets[b] = struct{}{}
	}

	restoredEng := driftFixture(t, nLinks)
	for _, compactBytes := range []int64{-1, 20 << 10} {
		for budget := range budgets {
			dir := t.TempDir()
			fs := &crashFS{budget: budget}
			eng := driftFixture(t, nLinks)
			if err := eng.Calibrate(context.Background(), 150); err != nil {
				t.Fatal(err)
			}
			j, err := openJournal(dir, JournalConfig{SyncEvery: time.Millisecond, compactBytes: compactBytes}, fs)
			if err != nil {
				// Killed before the journal even opened (the header write):
				// the run proceeds unjournaled and recovery must land on the
				// empty prefix.
				if !errors.Is(err, errCrashed) {
					t.Fatalf("budget %d: open: %v", budget, err)
				}
			} else {
				if err := eng.SetJournal(j); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Run(context.Background(), windows); err != nil {
				t.Fatalf("budget %d: a journal crash must never kill the run: %v", budget, err)
			}
			if j != nil {
				j.Close() // reports the injected failure; the crash is the point
			}

			// "Reboot": reopen the directory with a healthy filesystem and
			// restore a fresh engine.
			j2, err := openJournal(dir, JournalConfig{SyncEvery: time.Hour, compactBytes: -1}, osFS{})
			if err != nil {
				t.Fatalf("compact %d budget %d: reopen: %v", compactBytes, budget, err)
			}
			ids, err := j2.Restore(restoredEng)
			if err != nil {
				t.Fatalf("compact %d budget %d: restore: %v", compactBytes, budget, err)
			}
			got := map[string][]byte{}
			for _, id := range ids {
				rec, err := restoredEng.ExportLink(id)
				if err != nil {
					t.Fatal(err)
				}
				got[id] = rec
			}
			k, ok := validStates[tupleOf(got)]
			if !ok {
				t.Fatalf("compact %d budget %d: recovered state matches no clean prefix of the emission log", compactBytes, budget)
			}
			if budget > 0 && len(ids) == 0 && k != 0 {
				t.Fatalf("compact %d budget %d: restored no links but matched prefix %d", compactBytes, budget, k)
			}
			// The recovered journal must accept the next session's appends.
			w := j2.NewWriter()
			w.AppendDelta("l0", []byte("resumed"))
			w.Flush()
			if err := j2.Err(); err != nil {
				t.Fatalf("compact %d budget %d: post-recovery append: %v", compactBytes, budget, err)
			}
			if err := j2.Close(); err != nil {
				t.Fatalf("compact %d budget %d: close: %v", compactBytes, budget, err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Drain cadence: what a drain writes, and when (probeFS)
// ---------------------------------------------------------------------------

// probeFS is a journalFS over the real filesystem that reports what its
// append handles do: the bytes written so far, that count as each Sync
// returns, and a signal on wrote after every Write.
type probeFS struct {
	osFS
	wrote chan struct{} // buffered; a full channel drops the signal

	mu      sync.Mutex
	written int
	syncs   []int
}

func (p *probeFS) OpenAppend(path string) (journalHandle, error) {
	h, err := p.osFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &probeHandle{journalHandle: h, p: p}, nil
}

// state returns the bytes written and the written count at each Sync.
func (p *probeFS) state() (int, []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.written, append([]int(nil), p.syncs...)
}

type probeHandle struct {
	journalHandle
	p *probeFS
}

func (h *probeHandle) Write(b []byte) (int, error) {
	n, err := h.journalHandle.Write(b)
	h.p.mu.Lock()
	h.p.written += n
	h.p.mu.Unlock()
	select {
	case h.p.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (h *probeHandle) Sync() error {
	err := h.journalHandle.Sync()
	h.p.mu.Lock()
	h.p.syncs = append(h.p.syncs, h.p.written)
	h.p.mu.Unlock()
	return err
}

// openProbed opens a journal over a probeFS whose cadence tick never fires
// during the test, so every drain is one the test drives.
func openProbed(t *testing.T) (*Journal, *probeFS) {
	t.Helper()
	fs := &probeFS{wrote: make(chan struct{}, 1)}
	j, err := openJournal(t.TempDir(), JournalConfig{SyncEvery: time.Hour, compactBytes: -1}, fs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, fs
}

// TestJournalSyncWritesEveryRecord: a syncing drain writes every record
// appended before it, and only then fsyncs, so a record is durable at the
// first tick after its append rather than waiting out a second one.
func TestJournalSyncWritesEveryRecord(t *testing.T) {
	const n = 5
	j, fs := openProbed(t)
	w := j.NewWriter()
	rec := logRec{kind: kindDelta, id: "l0", blob: bytes.Repeat([]byte{7}, 100)}
	for i := 0; i < n; i++ {
		w.AppendDelta(rec.id, rec.blob)
	}
	j.drain()
	if _, syncs := fs.state(); len(syncs) != 1 || syncs[0] != n*rec.frameSize() {
		t.Fatalf("bytes written at each Sync = %v, want one Sync after all %d records (%d bytes)", syncs, n, n*rec.frameSize())
	}
}

// TestJournalKickDrainsWithoutSync: a writer whose buffer reaches
// drainBytes kicks the syncer, which writes the buffer out well before the
// hour-long tick and without an fsync, leaving the writer holding less
// than one record.
func TestJournalKickDrainsWithoutSync(t *testing.T) {
	j, fs := openProbed(t)
	w := j.NewWriter().(*journalWriter)
	rec := logRec{kind: kindDelta, id: "l0", blob: bytes.Repeat([]byte{7}, 2048)}
	appended := 0
	for appended < drainBytes {
		w.AppendDelta(rec.id, rec.blob)
		appended += rec.frameSize()
	}
	<-fs.wrote
	if written, syncs := fs.state(); written != appended || len(syncs) != 0 {
		t.Fatalf("kick wrote %d bytes with %d Syncs, want %d bytes and no Sync", written, len(syncs), appended)
	}
	w.mu.Lock()
	held := len(w.b)
	w.mu.Unlock()
	if held >= rec.frameSize() {
		t.Fatalf("writer still holds %d bytes after the kick's write, want less than one %d-byte record", held, rec.frameSize())
	}
}

// ---------------------------------------------------------------------------
// Satellites: record round-trip property, ErrRunning typing
// ---------------------------------------------------------------------------

// TestStoreRoundTripByteIdentity is the export→import→export property of
// the link records the journal and its snapshots store, across every drift
// preset and several seeds: the second export must be byte-identical to
// the first, including for quarantined links (the
// furniture-move step trips the jump discriminator) and links still
// flagged for recalibration.
func TestStoreRoundTripByteIdentity(t *testing.T) {
	presets := []struct {
		name    string
		preset  scenario.DriftPreset
		windows int
	}{
		{"NoDrift", scenario.NoDrift(), 10},
		{"GainWalk", scenario.GainWalk(8), 10},
		{"CFOWalk", scenario.CFOWalk(60, 0.05), 10},
		// The mid-run step plus the post-step windows it takes for the jump
		// discriminator to latch: this preset quarantines links, so the
		// round-trip covers quarantined/recalibration-flagged state too.
		{"FurnitureMove", scenario.FurnitureMove(350), 16},
		{"AmbientDrift", scenario.AmbientDrift(4, 6, 200), 10},
	}
	sawQuarantine := false
	for _, tc := range presets {
		for _, seed := range []int64{1, 5, 9} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				pol := adapt.Policy{}
				build := func() *engine.Engine {
					e := engine.New(engine.Config{Workers: 1, WindowSize: 25, Adaptation: &pol})
					s, err := scenario.LinkCase(int(seed%5)+1, seed)
					if err != nil {
						t.Fatal(err)
					}
					stream, err := s.NewDriftStream(tc.preset, 1)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.AddLink("l", core.DefaultConfig(s.Grid, core.SchemeSubcarrier, s.Env.RX.Offsets()), stream); err != nil {
						t.Fatal(err)
					}
					return e
				}
				a := build()
				if err := a.Calibrate(context.Background(), 150); err != nil {
					t.Fatal(err)
				}
				if err := a.Run(context.Background(), tc.windows); err != nil {
					t.Fatal(err)
				}
				for _, lm := range a.Metrics().PerLink {
					if lm.Health.State == adapt.StateQuarantined || lm.Health.NeedsRecalibration {
						sawQuarantine = true
					}
				}
				r1, err := a.ExportLink("l")
				if err != nil {
					t.Fatal(err)
				}
				b := build()
				if err := b.ImportLink("l", r1); err != nil {
					t.Fatal(err)
				}
				r2, err := b.ExportLink("l")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r1, r2) {
					t.Fatal("export→import→export is not byte-identical")
				}
			})
		}
	}
	if !sawQuarantine {
		t.Error("no preset produced a quarantined or recalibration-flagged link — the property is under-exercised")
	}
}

// TestStoreErrRunning pins the typed restore-while-running failure.
func TestStoreErrRunning(t *testing.T) {
	dir := t.TempDir()
	eng := driftFixture(t, 1)
	if err := eng.Calibrate(context.Background(), 150); err != nil {
		t.Fatal(err)
	}
	record, err := eng.ExportLink("l0")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, "l0"), record, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, JournalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, 0) }()
	// Wait until the run is actually scoring.
	for eng.Metrics().WindowsScored == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := j.Restore(eng); !errors.Is(err, ErrRunning) || !errors.Is(err, engine.ErrRunning) {
		t.Errorf("Restore while running: err = %v, want fleet.ErrRunning wrapping engine.ErrRunning", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestJournalRefusesForeignFile: a file with a valid length but a foreign
// magic or version must be refused, not clobbered.
func TestJournalRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFileName)
	foreign := []byte("NOTJRNL-this is some other format")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openJournal(dir, JournalConfig{}, osFS{}); !errors.Is(err, binio.ErrBadJournal) {
		t.Fatalf("foreign file: err = %v, want ErrBadJournal", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(data, foreign) {
		t.Fatal("refusal modified the foreign file")
	}
}
