package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/csinet"
	"mlink/internal/engine"
	"mlink/internal/scenario"
)

// The operating point every workload shares.
const (
	windowSize   = 25   // packets per monitoring window
	calPackets   = 150  // calibration packets per link, mlink-serve's default
	pktRate      = 2500 // packets per second per link in the paced phase
	framePeriod  = time.Second / pktRate
	roundsPerSec = pktRate / windowSize
	warmRounds   = 50   // paced rounds left out of the latency samples
	loopWindows  = 16   // recorded windows per frozen link, replayed in a loop
	walkWindows  = 40   // recorded gain-walk windows, replayed forward then backward
	workers      = 2    // engine shards
	ringSize     = 2048 // frames per link: 0.8 s of input, so a host stall shorter than that drops nothing
)

// workload is one member of the benchmark's closed set of input shapes.
type workload struct {
	name        string
	links       int
	scheme      core.Scheme
	stepDeg     float64 // steering-grid step of the path scheme; 0 keeps the default
	occupyEvery int     // every n-th link has a person at its midpoint after calibration
	gainWalk    float64 // receive-gain walk in dB per minute; 0 for none
	adaptive    bool
	journal     bool
	weighted    bool
	idleSubs    int  // in-process hub subscribers beside the HTTP watcher
	poller      bool // GET /v1/verdict and /metrics at 10 req/s each on a second connection
	why         string
	loads       string
	bypasses    string
}

var workloads = []workload{
	{
		name: "subcarrier-fleet", links: 40, scheme: core.SchemeSubcarrier, occupyEvery: 5,
		why:      "cheapest per-window scoring, so per-frame ingest and engine scheduling carry their largest share",
		loads:    "csinet decode, supervise rings, shard poll/backoff, fusion, hub",
		bypasses: "music (no spectral work), adapt, fleet journal",
	},
	{
		name: "path-fine", links: 16, scheme: core.SchemeSubcarrierPath, stepDeg: 0.05, occupyEvery: 5,
		why:      "the covariance and two Bartlett spectra over a 3,601-row steering grid are over a third of each window",
		loads:    "music covariance and Bartlett, core calibration (pseudospectrum, path weights, partials)",
		bypasses: "adapt, fleet journal",
	},
	{
		name: "adaptive-journal", links: 16, scheme: core.SchemeSubcarrier, gainWalk: 12,
		adaptive: true, journal: true, weighted: true, idleSubs: 1000, poller: true,
		why:      "the scoring layers also write: profile refreshes allocate, every window appends a journal delta, the hub fans out to 1,000 rings",
		loads:    "adapt.Observe, fleet journal, hub fan-out, HTTP polling, GC",
		bypasses: "music (no spectral work)",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) fusion() engine.FusionPolicy {
	if w.weighted {
		return engine.WeightedKOfN{K: 1}
	}
	return engine.KOfN{K: 1}
}

func (w workload) adaptation() *adapt.Policy {
	if !w.adaptive {
		return nil
	}
	return &adapt.Policy{}
}

// shape describes the workload for the report header.
func (w workload) shape() string {
	scheme := "subcarrier"
	if w.scheme == core.SchemeSubcarrierPath {
		scheme = fmt.Sprintf("subcarrier+path, %.2f° steering grid", w.stepDeg)
	}
	extra := "no adaptation, no journal"
	if w.adaptive {
		extra = fmt.Sprintf("gain walk %.0f dB/min, default adapt.Policy, journal (1 s fsync)", w.gainWalk)
	}
	return fmt.Sprintf("%d links (%s), %d pkt/s per link = %d windows/s offered, %s, %s, %d idle subscribers, poller %v",
		w.links, scheme, pktRate, w.links*roundsPerSec, w.fusion(), extra, w.idleSubs, w.poller)
}

// recording is a link's frames as csinet wire messages, back to back.
type recording struct {
	buf  []byte
	offs []int // message i is buf[offs[i]:offs[i+1]]
}

// Write appends to the recording, so csinet.WriteMessage can frame into it.
func (r *recording) Write(p []byte) (int, error) {
	r.buf = append(r.buf, p...)
	return len(p), nil
}

func (r *recording) add(f *csi.Frame) error {
	payload, err := csinet.EncodeFrame(f)
	if err != nil {
		return err
	}
	if len(r.offs) == 0 {
		r.offs = append(r.offs, 0)
	}
	if err := csinet.WriteMessage(r, csinet.TypeFrame, payload); err != nil {
		return err
	}
	r.offs = append(r.offs, len(r.buf))
	return nil
}

// offHeap moves the finished recording into anonymous memory outside the Go
// heap. The recorded inputs are large; left on the heap they would raise the
// collector's heap goal, and the system under test would collect far less
// often than it does in a deployment. The mapping lives as long as the
// process.
func (r *recording) offHeap() error {
	if len(r.buf) == 0 {
		return nil
	}
	m, err := syscall.Mmap(-1, 0, len(r.buf), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("map recording: %w", err)
	}
	copy(m, r.buf)
	r.buf = m
	return nil
}

func (r *recording) len() int         { return len(r.offs) - 1 }
func (r *recording) msg(i int) []byte { return r.buf[r.offs[i]:r.offs[i+1]] }

// linkInput is everything recorded for one link before timing starts.
type linkInput struct {
	id         string
	cfg        core.Config
	nAnt, nSub int
	cal        recording // 2×calPackets empty-room frames
	mon        recording // monitoring frames, replayed in a loop
	pingPong   bool      // replay forward then backward (continuous gain walk)
}

// monIndex maps the k-th monitoring frame handed out onto the recording.
func (li *linkInput) monIndex(k int64) int {
	n := int64(li.mon.len())
	if !li.pingPong {
		return int(k % n)
	}
	p := k % (2 * n)
	if p < n {
		return int(p)
	}
	return int(2*n - 1 - p)
}

// generate records every link's frames from scenario.LinkCase systems seeded
// by the workload seed, encoded as csinet messages.
func generate(w workload, seed int64) ([]*linkInput, error) {
	in := make([]*linkInput, w.links)
	for i := range in {
		s, err := scenario.LinkCase(1+i%scenario.NumLinkCases, seed*1009+int64(i))
		if err != nil {
			return nil, fmt.Errorf("link %d: %w", i, err)
		}
		cfg := core.DefaultConfig(s.Grid, w.scheme, s.Env.RX.Offsets())
		if w.stepDeg > 0 {
			cfg.SpectrumStepDeg = w.stepDeg
		}
		li := &linkInput{
			id:       fmt.Sprintf("l%02d", i),
			cfg:      cfg,
			nAnt:     len(s.Env.RX.Elements),
			nSub:     s.Grid.Len(),
			pingPong: w.gainWalk != 0,
		}
		capture, err := capturer(s, w.gainWalk)
		if err != nil {
			return nil, fmt.Errorf("link %d: %w", i, err)
		}
		var bodies []body.Body
		if w.occupyEvery > 0 && i%w.occupyEvery == w.occupyEvery-1 {
			bodies = []body.Body{body.Default(s.LinkMidpoint())}
		}
		mon := loopWindows * windowSize
		if li.pingPong {
			mon = walkWindows * windowSize
		}
		for n := 0; n < 2*calPackets+mon; n++ {
			rec, people := &li.cal, []body.Body(nil)
			if n >= 2*calPackets {
				rec, people = &li.mon, bodies
			}
			f, err := capture(people)
			if err != nil {
				return nil, fmt.Errorf("link %d capture: %w", i, err)
			}
			if err := rec.add(f); err != nil {
				return nil, fmt.Errorf("link %d encode: %w", i, err)
			}
		}
		if err := li.cal.offHeap(); err != nil {
			return nil, err
		}
		if err := li.mon.offHeap(); err != nil {
			return nil, err
		}
		in[i] = li
	}
	return in, nil
}

// capturer returns a function producing the link's next simulated frame;
// each frame is only valid until the next call.
func capturer(s *scenario.Scenario, gainWalk float64) (func([]body.Body) (*csi.Frame, error), error) {
	if gainWalk != 0 {
		ds, err := s.NewDriftStream(scenario.GainWalk(gainWalk), 1)
		if err != nil {
			return nil, err
		}
		var last *csi.Frame
		return func(people []body.Body) (*csi.Frame, error) {
			if last != nil {
				ds.Recycle(last)
			}
			ds.SetBodies(people)
			f, err := ds.Next()
			last = f
			return f, err
		}, nil
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		return nil, err
	}
	f := csi.NewFrame(len(s.Env.RX.Elements), s.Grid.Len())
	return func(people []body.Body) (*csi.Frame, error) {
		return f, x.CaptureInto(f, people)
	}, nil
}

var errInterrupted = errors.New("source interrupted")

// source replays one link's recording through the real csinet read path
// (header, CRC, payload decode into a pooled frame). Calibration frames are
// read unpaced; monitoring frames loop over the recording and, with a pacer
// attached, are handed out no earlier than their release.
type source struct {
	in   *linkInput
	pool *csi.FramePool
	mr   csinet.MessageReader
	rd   bytes.Reader

	calNext    int
	monitoring bool  // flipped between Calibrate and Run, never during Next
	k          int64 // monitoring frames handed out
	drop       int64 // monitoring frame lost in transit (self-test); -1 for none

	pace  *pacer
	phase int64 // pacer ticks this link's frames trail the first link's
	wake  chan struct{}
	stop  chan struct{}
	once  sync.Once

	// Owned by whichever goroutine calls Next; read once the run has ended.
	frames, nbytes, nerrors uint64
	timed                   uint64 // monitoring frames with a measured decode
	decodeNs                int64
	tr                      *sourceTrace
}

// sourceTrace holds the traced run's stamps of the frame that closes each
// window: decode start and end, in ns since the process base.
type sourceTrace struct {
	start, end []int64
}

func addSources(e *engine.Engine, in []*linkInput, rounds int, traced bool) ([]*source, error) {
	srcs := make([]*source, len(in))
	for i, li := range in {
		s := &source{in: li, pool: csi.NewFramePool(li.nAnt, li.nSub), drop: -1, stop: make(chan struct{})}
		if traced {
			s.tr = &sourceTrace{start: make([]int64, rounds), end: make([]int64, rounds)}
		}
		if err := e.AddLink(li.id, li.cfg, s); err != nil {
			return nil, fmt.Errorf("add link %s: %w", li.id, err)
		}
		srcs[i] = s
	}
	return srcs, nil
}

// Next implements engine.Source.
func (s *source) Next() (*csi.Frame, error) {
	if !s.monitoring {
		if s.calNext >= s.in.cal.len() {
			return nil, io.EOF
		}
		s.calNext++
		return s.decode(s.in.cal.msg(s.calNext - 1))
	}
	if s.pace != nil {
		for min(s.pace.released.Load()-s.phase, s.pace.limit) <= s.k {
			select {
			case <-s.wake:
			case <-s.stop:
				return nil, errInterrupted
			}
		}
	}
	k := s.k
	s.k++
	if s.drop >= 0 && k >= s.drop {
		k++ // the lost frame: every later frame arrives one early
	}
	msg := s.in.mon.msg(s.in.monIndex(k))
	if s.tr == nil {
		return s.decode(msg)
	}
	t0 := time.Now()
	f, err := s.decode(msg)
	t1 := time.Now()
	s.timed++
	s.decodeNs += t1.Sub(t0).Nanoseconds()
	if s.k%windowSize == 0 {
		if w := s.k/windowSize - 1; w < int64(len(s.tr.end)) {
			s.tr.start[w], s.tr.end[w] = since(t0), since(t1)
		}
	}
	return f, err
}

func (s *source) decode(msg []byte) (*csi.Frame, error) {
	s.rd.Reset(msg)
	typ, payload, err := s.mr.Read(&s.rd)
	if err == nil && typ != csinet.TypeFrame {
		err = fmt.Errorf("message type %d: %w", typ, csinet.ErrMalformed)
	}
	if err != nil {
		s.nerrors++
		return nil, fmt.Errorf("csinet read: %w", err)
	}
	f := s.pool.Get()
	if err := csinet.DecodeFrameInto(f, payload); err != nil {
		s.nerrors++
		s.pool.Put(f)
		return nil, fmt.Errorf("csinet decode: %w", err)
	}
	s.frames++
	s.nbytes += uint64(len(msg))
	return f, nil
}

// Recycle implements engine.FrameRecycler.
func (s *source) Recycle(f *csi.Frame) { s.pool.Put(f) }

// Interrupt implements supervise.Interrupter: it unblocks a paced Next when
// the run ends.
func (s *source) Interrupt() { s.once.Do(func() { close(s.stop) }) }

// pacer is the open-loop load generator. Every framePeriod it releases one
// frame to every link, whatever the pipeline is doing, and records how late
// each tick ran. Link i's frames trail by i·windowSize/links ticks, so
// windows close spread over the round instead of all at one instant: frame
// k of a link with phase φ is due at t0 + (k+φ)·framePeriod.
type pacer struct {
	limit    int64 // frames per link
	maxPhase int64
	t0       time.Time
	started  bool
	released atomic.Int64
	wakes    []chan struct{}
	lagMs    []float64
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
}

func newPacer(limit int64, srcs []*source) *pacer {
	p := &pacer{limit: limit, lagMs: make([]float64, 0, limit+windowSize), stop: make(chan struct{}), done: make(chan struct{})}
	for i, s := range srcs {
		s.pace = p
		s.phase = int64(i * windowSize / len(srcs))
		p.maxPhase = max(p.maxPhase, s.phase)
		s.wake = make(chan struct{}, 1)
		p.wakes = append(p.wakes, s.wake)
	}
	return p
}

func (p *pacer) start() {
	p.t0 = time.Now()
	p.started = true
	go p.run()
}

// due is when tick k is due, in ns since the process base.
func (p *pacer) due(k int64) int64 { return since(p.t0) + k*int64(framePeriod) }

func (p *pacer) run() {
	defer close(p.done)
	ticks := p.limit + p.maxPhase
	for k := int64(0); k < ticks; {
		select {
		case <-p.stop:
			return
		default:
		}
		now := time.Now()
		if wait := p.t0.Add(time.Duration(k) * framePeriod).Sub(now); wait > 0 {
			time.Sleep(wait)
			continue
		}
		n := min(int64(now.Sub(p.t0)/framePeriod)+1, ticks)
		for ; k < n; k++ {
			p.lagMs = append(p.lagMs, ms(now.Sub(p.t0.Add(time.Duration(k)*framePeriod))))
		}
		p.released.Store(k)
		for _, w := range p.wakes {
			select {
			case w <- struct{}{}:
			default:
			}
		}
	}
}

// halt stops a started pacer and waits for it to exit.
func (p *pacer) halt() {
	if !p.started {
		return
	}
	p.once.Do(func() { close(p.stop) })
	<-p.done
}
