package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/engine"
	"mlink/internal/fleet"
	"mlink/internal/serve"
	"mlink/internal/supervise"
)

// reference holds every (link, window) decision of the single-threaded
// reference run. Frozen links over a looped recording repeat with the loop
// period, so for them only two periods are scored and looked up modulo.
type reference struct {
	dec           [][]core.Decision
	period        int64 // 0: decisions do not repeat (adaptive links)
	windowsPerSec float64
}

func (r *reference) at(link int, w int64) (core.Decision, bool) {
	d := r.dec[link]
	if r.period > 0 {
		w %= r.period
	}
	if w < 0 || w >= int64(len(d)) {
		return core.Decision{}, false
	}
	return d[w], true
}

func sameDecision(a, b core.Decision) bool {
	return a.Present == b.Present &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold)
}

func (r *reference) matches(link int, w int64, got core.Decision) bool {
	want, ok := r.at(link, w)
	return ok && sameDecision(want, got)
}

// refEngines is how many single-worker reference engines score disjoint
// sets of links side by side. No decision depends on another link (there
// is no fleet coordinator), so splitting the fleet changes no decision.
const refEngines = 2

// buildReference scores the recorded inputs on single-worker engines,
// unpaced, unsupervised and without serving, recording every decision in
// order.
func buildReference(ctx context.Context, w workload, in []*linkInput, rounds int) (*reference, error) {
	ref := &reference{dec: make([][]core.Decision, len(in))}
	windows := rounds
	if !w.adaptive {
		ref.period = int64(in[0].mon.len() / windowSize)
		windows = int(2 * ref.period)
	}
	parts := min(refEngines, len(in))
	rates := make([]float64, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		var part []*linkInput
		for i := p; i < len(in); i += parts {
			part = append(part, in[i])
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rates[p], errs[p] = scoreReference(ctx, w, part, windows, ref.dec)
		}(p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	ref.windowsPerSec = mean(rates)
	for i, d := range ref.dec {
		if len(d) != windows {
			return nil, fmt.Errorf("reference link %d decided %d of %d windows", i, len(d), windows)
		}
		for k := ref.period; ref.period > 0 && k < int64(len(d)); k++ {
			if !sameDecision(d[k], d[k-ref.period]) {
				return nil, fmt.Errorf("reference link %d: window %d differs from window %d of the looped replay", i, k, k-ref.period)
			}
		}
	}
	return ref, nil
}

// scoreReference runs one single-worker engine over part of the fleet,
// appending each link's decisions to dec[link], and returns its rate.
func scoreReference(ctx context.Context, w workload, part []*linkInput, windows int, dec [][]core.Decision) (float64, error) {
	e := engine.New(engine.Config{
		Workers:    1,
		WindowSize: windowSize,
		Fusion:     w.fusion(),
		Adaptation: w.adaptation(),
		OnDecision: func(id string, d core.Decision) {
			i := linkIndex(id)
			dec[i] = append(dec[i], d)
		},
	})
	srcs, err := addSources(e, part, 0, false)
	if err != nil {
		return 0, err
	}
	if err := e.Calibrate(ctx, calPackets); err != nil {
		return 0, fmt.Errorf("reference calibrate: %w", err)
	}
	for _, s := range srcs {
		s.monitoring = true
	}
	start := time.Now()
	if err := e.Run(ctx, windows); err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	return float64(windows*len(part)) / time.Since(start).Seconds(), nil
}

func linkIndex(id string) int {
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// tracker is the measured engine's Config.OnDecision: it checks every
// decision against the reference bit for bit, closes fused round r once
// every link has decided window r, and nudges the hub once per closed round.
type tracker struct {
	ref     *reference
	n       int
	wins    []atomic.Int64 // windows decided per link
	rounds  []atomic.Int32 // links decided per round
	decided atomic.Int64
	closed  atomic.Int64
	failed  atomic.Int64
	hub     *serve.Hub // set before the first Run
	decAt   [][]int64  // traced: decision time per link and window (ns since base)
}

func newTracker(ref *reference, n, rounds int, traced bool) *tracker {
	t := &tracker{ref: ref, n: n, wins: make([]atomic.Int64, n), rounds: make([]atomic.Int32, rounds)}
	if traced {
		t.decAt = make([][]int64, n)
		for i := range t.decAt {
			t.decAt[i] = make([]int64, rounds)
		}
	}
	return t
}

func (t *tracker) onDecision(id string, d core.Decision) {
	li := linkIndex(id)
	w := t.wins[li].Add(1) - 1
	t.decided.Add(1)
	if t.decAt != nil && w < int64(len(t.decAt[li])) {
		t.decAt[li][w] = since(time.Now())
	}
	if !t.ref.matches(li, w, d) {
		t.failed.Add(1)
	}
	if w < int64(len(t.rounds)) && int(t.rounds[w].Add(1)) == t.n {
		t.closed.Add(1)
		t.hub.Notify()
	}
}

// undecided counts windows below quota that no link decided.
func (t *tracker) undecided(quota int64) int64 {
	var missing int64
	for i := range t.wins {
		if got := t.wins[i].Load(); got < quota {
			missing += quota - got
		}
	}
	return missing
}

// fusionProbe wraps the workload's fusion policy; in the traced run it times
// every Fuse call.
type fusionProbe struct {
	inner  engine.FusionPolicy
	traced bool
	trk    *tracker
	calls  atomic.Int64
	ns     atomic.Int64
	mu     sync.Mutex
	spans  [][3]int64 // start, end, rounds closed at the call
}

func (f *fusionProbe) Fuse(d []engine.LinkDecision) (engine.SiteVerdict, error) {
	if !f.traced {
		return f.inner.Fuse(d)
	}
	t0 := time.Now()
	v, err := f.inner.Fuse(d)
	t1 := time.Now()
	f.calls.Add(1)
	f.ns.Add(t1.Sub(t0).Nanoseconds())
	f.mu.Lock()
	f.spans = append(f.spans, [3]int64{since(t0), since(t1), f.trk.closed.Load() - 1})
	f.mu.Unlock()
	return v, err
}

func (f *fusionProbe) String() string { return f.inner.String() }

// journalProbe counts (and in the traced run times) the records the engine
// appends to the fleet journal. The engine serializes appends, so the
// counters need no lock.
type journalProbe struct {
	traced             bool
	trk                *tracker
	fulls, deltas      uint64
	nbytes, deltaBytes uint64
	ns                 int64
	start, end         [][]int64 // traced: delta append span per link and window
}

type journalSink struct {
	inner engine.JournalSink
	p     *journalProbe
}

func (s journalSink) NewWriter() engine.JournalWriter {
	return &journalWriter{inner: s.inner.NewWriter(), p: s.p}
}

type journalWriter struct {
	inner engine.JournalWriter
	p     *journalProbe
}

func (w *journalWriter) AppendFull(id string, rec []byte) {
	w.p.fulls++
	w.p.nbytes += uint64(len(rec))
	w.inner.AppendFull(id, rec)
}

func (w *journalWriter) AppendDelta(id string, rec []byte) {
	p := w.p
	p.deltas++
	p.nbytes += uint64(len(rec))
	p.deltaBytes += uint64(len(rec))
	if !p.traced {
		w.inner.AppendDelta(id, rec)
		return
	}
	t0 := time.Now()
	w.inner.AppendDelta(id, rec)
	t1 := time.Now()
	p.ns += t1.Sub(t0).Nanoseconds()
	li := linkIndex(id)
	if win := p.trk.wins[li].Load() - 1; win >= 0 && win < int64(len(p.start[li])) {
		p.start[li][win], p.end[li][win] = since(t0), since(t1)
	}
}

func (w *journalWriter) Flush() { w.inner.Flush() }

var (
	dataPrefix = []byte("data: ")
	idPrefix   = []byte("id: ")
	linkKey    = []byte(`{"id":"l`)
	scoreKey   = []byte(`"score":`)
)

// watcher is the HTTP SSE client on its own connection: it maps each
// event's per-link scores back to window indices through the reference and
// stamps when each fused round first reached it.
type watcher struct {
	ref     *reference
	decided []atomic.Int64 // the tracker's windows decided per link
	n       int
	tr      *http.Transport
	body    io.ReadCloser
	cancel  context.CancelFunc
	done    chan struct{}
	first   chan struct{}
	once    sync.Once
	traced  bool
	lastID  atomic.Uint64
	covered atomic.Int64 // highest round every link has shown

	// Owned by the reading goroutine until done is closed.
	firstAt        time.Time
	pendingID      uint64
	last           []int64 // per link: last window the stream showed
	seen           []int64 // per round: arrival of the first event covering it
	events, nbytes uint64
	recv           [][3]int64 // traced: event parse span and the round it covered
	err            error
}

func startWatcher(ctx context.Context, url string, ref *reference, trk *tracker, rounds int, traced bool) (*watcher, error) {
	n := trk.n
	wctx, cancel := context.WithCancel(ctx)
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, url+"/v1/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("sse connect: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("sse connect: %s", resp.Status)
	}
	w := &watcher{
		ref: ref, decided: trk.wins, n: n, tr: tr, body: resp.Body, cancel: cancel, traced: traced,
		done: make(chan struct{}), first: make(chan struct{}),
		last: make([]int64, n), seen: make([]int64, rounds),
	}
	for i := range w.last {
		w.last[i] = -1
	}
	w.covered.Store(-1)
	go w.read(bufio.NewReaderSize(resp.Body, 1<<20))
	return w, nil
}

func (w *watcher) read(br *bufio.Reader) {
	defer close(w.done)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			w.err = err
			return
		}
		w.nbytes += uint64(len(line))
		switch {
		case bytes.HasPrefix(line, idPrefix):
			if id, err := strconv.ParseUint(string(bytes.TrimSpace(line[len(idPrefix):])), 10, 64); err == nil {
				w.pendingID = id
			}
		case bytes.HasPrefix(line, dataPrefix):
			t0 := time.Now()
			w.events++
			w.observe(line[len(dataPrefix):], t0)
			if w.traced {
				w.recv = append(w.recv, [3]int64{since(t0), since(time.Now()), w.covered.Load()})
			}
			w.lastID.Store(w.pendingID)
		}
	}
}

// observe maps one verdict document onto rounds: the round it covers is the
// smallest window any link shows.
func (w *watcher) observe(doc []byte, now time.Time) {
	minWin, links := int64(math.MaxInt64), 0
	for p := 0; ; {
		i := bytes.Index(doc[p:], linkKey)
		if i < 0 {
			break
		}
		p += i + len(linkKey)
		link := 0
		for p < len(doc) && doc[p] != '"' {
			link = link*10 + int(doc[p]-'0')
			p++
		}
		j := bytes.Index(doc[p:], scoreKey)
		if j < 0 || link >= w.n {
			break
		}
		p += j + len(scoreKey)
		end := p
		for end < len(doc) && doc[end] != ',' && doc[end] != '}' {
			end++
		}
		score, err := strconv.ParseFloat(string(doc[p:end]), 64)
		p = end
		if err != nil {
			continue // the link shows no window this round
		}
		minWin = min(minWin, w.match(link, score))
		links++
	}
	if links < w.n {
		minWin = -1
	}
	w.once.Do(func() {
		w.firstAt = now
		close(w.first)
	})
	if cov := w.covered.Load(); minWin > cov {
		for r := cov + 1; r <= minWin && r < int64(len(w.seen)); r++ {
			w.seen[r] = since(now)
		}
		w.covered.Store(minWin)
	}
}

// match finds the window whose reference score equals the event's. The
// window lies between the link's last known window and the last one it had
// decided when the event arrived; searching down from the latter tells the
// equal scores of a looped replay apart however many rounds the hub
// coalesced, as long as an event reaches the watcher within one loop
// period of its encode.
func (w *watcher) match(link int, score float64) int64 {
	lo := max(w.last[link], 0)
	for win := w.decided[link].Load() - 1; win >= lo; win-- {
		if d, ok := w.ref.at(link, win); ok && math.Float64bits(d.Score) == math.Float64bits(score) {
			w.last[link] = win
			return win
		}
	}
	return w.last[link] // no such score: the round stays uncovered
}

// stop closes the stream and waits for the reader to exit. Idempotent.
func (w *watcher) stop() {
	w.cancel()
	w.body.Close()
	<-w.done
	w.tr.CloseIdleConnections()
}

// poller is the open-loop HTTP client of the adaptive-journal workload:
// every 50 ms it alternates GET /v1/verdict and GET /metrics on its own
// connection, 10 requests per second each.
type poller struct {
	client *http.Client
	tr     *http.Transport
	url    string
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
	latMs  []float64
	errs   int64
}

func startPoller(url string) *poller {
	tr := &http.Transport{MaxConnsPerHost: 1}
	p := &poller{client: &http.Client{Transport: tr, Timeout: 5 * time.Second}, tr: tr, url: url,
		stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *poller) run() {
	defer close(p.done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	paths := [2]string{"/v1/verdict", "/metrics"}
	for i := 0; ; i++ {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		resp, err := p.client.Get(p.url + paths[i%2])
		if err != nil {
			p.errs++
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			p.errs++
			continue
		}
		p.latMs = append(p.latMs, ms(time.Since(t0)))
	}
}

// halt stops the poller and waits for it. Idempotent.
func (p *poller) halt() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	p.tr.CloseIdleConnections()
}

// replayPoll times GETs of /v1/verdict and /metrics, alternating, on one
// connection to a deployment whose workload has no poller of its own.
func replayPoll(url string) ([]float64, error) {
	const requests = 40
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	paths := [2]string{"/v1/verdict", "/metrics"}
	lat := make([]float64, 0, requests)
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		resp, err := client.Get(url + paths[i%2])
		if err != nil {
			return nil, fmt.Errorf("replay poll: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("replay poll: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("replay poll %s: %s", paths[i%2], resp.Status)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// stack is one measured deployment, started the way a daemon starts: engine
// and sources, journal open and restore, calibration, hub, HTTP server, and
// the SSE watcher (plus the workload's idle subscribers and poller).
type stack struct {
	o           options
	t0          time.Time
	e           *engine.Engine
	srcs        []*source
	trk         *tracker
	fuse        *fusionProbe
	jrn         *journalProbe
	journal     *fleet.Journal
	jdir        string
	hub         *serve.Hub
	httpSrv     *http.Server
	srvDone     chan struct{}
	url         string
	watch       *watcher
	idle        []*serve.Subscription
	idleStop    chan struct{}
	idleDone    chan struct{}
	poll        *poller
	pace        *pacer
	transitions atomic.Int64

	calibrateS    float64
	journalOpenMs float64

	cancel  context.CancelFunc
	runDone chan struct{}
	runErr  error
}

var stackSeq atomic.Int64

// build sets a deployment up to the point where the watcher is connected;
// paced stacks are supervised and get a pacer, saturated ones neither.
func build(ctx context.Context, o options, in []*linkInput, ref *reference, paced bool, rounds int) (_ *stack, err error) {
	st := &stack{o: o, t0: time.Now()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.trk = newTracker(ref, len(in), rounds, o.traced)
	st.fuse = &fusionProbe{inner: o.w.fusion(), traced: o.traced, trk: st.trk}
	cfg := engine.Config{
		Workers:    workers,
		WindowSize: windowSize,
		Fusion:     st.fuse,
		Adaptation: o.w.adaptation(),
		OnDecision: st.trk.onDecision,
	}
	if paced {
		cfg.Supervision = &supervise.Policy{
			RingSize:     ringSize,
			DropWhenFull: true,
			OnTransition: func(string, adapt.Lifecycle, adapt.Lifecycle, error) { st.transitions.Add(1) },
		}
	}
	st.e = engine.New(cfg)
	if st.srcs, err = addSources(st.e, in, rounds, o.traced); err != nil {
		return nil, err
	}
	if paced && o.drop >= 0 {
		st.srcs[0].drop = o.drop
	}
	tj := time.Now() // a workload without a journal reads the empty bracket
	if o.w.journal {
		st.jdir = filepath.Join(o.out, fmt.Sprintf("journal-%d-%d", os.Getpid(), stackSeq.Add(1)))
		if err = os.RemoveAll(st.jdir); err != nil {
			return nil, err
		}
		if st.journal, err = fleet.OpenJournal(st.jdir, fleet.JournalConfig{SyncEvery: time.Second}); err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		if _, err = st.journal.Restore(st.e); err != nil {
			return nil, fmt.Errorf("restore journal: %w", err)
		}
		st.jrn = &journalProbe{traced: o.traced, trk: st.trk}
		if o.traced {
			st.jrn.start, st.jrn.end = make([][]int64, len(in)), make([][]int64, len(in))
			for i := range in {
				st.jrn.start[i], st.jrn.end[i] = make([]int64, rounds), make([]int64, rounds)
			}
		}
		if err = st.e.SetJournal(journalSink{inner: st.journal, p: st.jrn}); err != nil {
			return nil, err
		}
	}
	st.journalOpenMs = ms(time.Since(tj))
	tc := time.Now()
	if err = st.e.Calibrate(ctx, calPackets); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	st.calibrateS = time.Since(tc).Seconds()
	for _, s := range st.srcs {
		s.monitoring = true
	}
	if paced {
		st.pace = newPacer(int64(rounds)*windowSize, st.srcs)
	}
	st.hub = serve.NewHub(st.e, serve.HubOptions{})
	st.hub.Start()
	st.trk.hub = st.hub
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.httpSrv = &http.Server{Handler: serve.NewServer(st.e, serve.Options{Hub: st.hub}).Handler()}
	st.srvDone = make(chan struct{})
	go func() {
		defer close(st.srvDone)
		_ = st.httpSrv.Serve(ln) // always http.ErrServerClosed once close runs
	}()
	st.url = "http://" + ln.Addr().String()
	for i := 0; i < o.w.idleSubs; i++ {
		sub, err := st.hub.Subscribe()
		if err != nil {
			return nil, err
		}
		st.idle = append(st.idle, sub)
	}
	if len(st.idle) > 0 {
		st.idleStop, st.idleDone = make(chan struct{}), make(chan struct{})
		go st.drainIdle()
	}
	if st.watch, err = startWatcher(ctx, st.url, ref, st.trk, rounds, o.traced); err != nil {
		return nil, err
	}
	return st, nil
}

// drainIdle empties the idle subscribers' rings every 100 ms: slow watchers
// that stay attached, so the hub keeps fanning out to all of them.
func (st *stack) drainIdle() {
	defer close(st.idleDone)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-st.idleStop:
			return
		case <-t.C:
		}
		for _, s := range st.idle {
			for f := s.TryNext(); f != nil; f = s.TryNext() {
				f.Release()
			}
		}
	}
}

// startRun starts the pacer (if any) and a background Run of rounds windows
// per link.
func (st *stack) startRun(ctx context.Context, rounds int) {
	runCtx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	st.runDone = make(chan struct{})
	if st.pace != nil {
		st.pace.start()
	}
	go func() {
		defer close(st.runDone)
		st.runErr = st.e.Run(runCtx, rounds)
	}()
}

// waitFirst waits for the first SSE event at the watcher: the end of set-up.
func (st *stack) waitFirst(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-st.watch.first:
		return nil
	case <-st.watch.done:
		return fmt.Errorf("sse stream ended before its first event: %v", st.watch.err)
	case <-st.runDone:
		return fmt.Errorf("run ended before the first sse event: %v", st.runErr)
	case <-t.C:
		return errors.New("timed out waiting for the first sse event")
	}
}

// settle waits until the hub has published every notified round and the
// watcher has read the last of them.
func (st *stack) settle(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	prev := ^uint64(0)
	for time.Now().Before(deadline) {
		enc := st.hub.Encodes()
		if enc == prev && st.watch.lastID.Load() >= enc && st.hub.Rounds() == uint64(st.trk.closed.Load()) {
			return
		}
		prev = enc
		time.Sleep(20 * time.Millisecond)
	}
}

// close tears everything down and waits for the goroutines it started.
// Safe on a partly built stack.
func (st *stack) close() {
	if st.pace != nil {
		st.pace.halt()
	}
	if st.cancel != nil {
		st.cancel()
		<-st.runDone
	}
	if st.poll != nil {
		st.poll.halt()
	}
	if st.watch != nil {
		st.watch.stop()
	}
	if st.idleStop != nil {
		close(st.idleStop)
		<-st.idleDone
		st.idleStop = nil
	}
	if st.httpSrv != nil {
		st.httpSrv.Close()
		<-st.srvDone
	}
	if st.hub != nil {
		st.hub.Close()
	}
	if st.journal != nil {
		// The journal only backs this run; its close error cannot change a
		// measurement already taken.
		_ = st.journal.Close()
		_ = os.RemoveAll(st.jdir)
		st.journal = nil
	}
}
