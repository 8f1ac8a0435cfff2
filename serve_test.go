package mlink

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/serve"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineStreamSoakChaos soaks the verdict stream under -race over a
// supervised chaos fleet: one stalled subscriber (never drains), one
// slow-drip subscriber (drains occasionally), and several healthy watchers
// share the encode-once hub while the engine scores and one link's source
// misbehaves. The stalled watcher must be shed without slowing anyone; the
// drip survives because draining resets its lag; healthy watchers see
// strictly ordered rounds; and the engine's scoring rate never blocks on
// any of them.
func TestEngineStreamSoakChaos(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 1, WindowSize: 25, Fusion: KOfN{K: 1}})
	if err := eng.EnableSupervision(SupervisionPolicy{
		StaleAfter: 50 * time.Millisecond,
		DownAfter:  150 * time.Millisecond,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	sysA, err := NewLinkCaseSystem(1, SchemeSubcarrier, 41)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewLinkCaseSystem(2, SchemeSubcarrier, 42)
	if err != nil {
		t.Fatal(err)
	}
	chaosSrc, err := eng.AddChaosLink("flaky", sysA, ChaosConfig{StallEvery: 1, StallFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddLink("steady", sysB); err != nil {
		t.Fatal(err)
	}

	// A dedicated hub so the test controls the shed threshold. MaxLag must
	// separate the two laggards by a wide margin: the drip accrues at most
	// ~25ms/2ms ≈ 13 consecutive drops between drains (publish rate is the
	// notify ticker below), the stalled watcher accrues them forever — so
	// 256 sheds the stall within ~0.5s of rounds while the drip never gets
	// within 10× of the threshold, whatever the scheduler does.
	hub := serve.NewHub(eng, serve.HubOptions{RingDepth: 2, MaxLag: 256})
	defer hub.Close()

	if err := eng.Calibrate(60); err != nil {
		t.Fatal(err)
	}
	hub.Start()

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(ctx, 0) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}()

	// Round driver: nudge the hub as rounds complete. (The facade's
	// Subscribe wires this into OnRound; here the hub is external so the
	// test controls the shed threshold.)
	notifyCtx, notifyStop := context.WithCancel(context.Background())
	defer notifyStop()
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-notifyCtx.Done():
				return
			case <-tick.C:
				hub.Notify()
			}
		}
	}()

	stalled, err := hub.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	drip, err := hub.Subscribe()
	if err != nil {
		t.Fatal(err)
	}

	const healthyN = 4
	var (
		wg       sync.WaitGroup
		healthy  [healthyN]uint64 // frames seen per healthy watcher
		orderErr atomic.Value
	)
	watchCtx, watchCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer watchCancel()
	for i := 0; i < healthyN; i++ {
		sub, err := hub.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sub *VerdictSubscription) {
			defer wg.Done()
			var last uint64
			for {
				f, err := sub.Next(watchCtx)
				if err != nil {
					return // ErrClosed at hub shutdown ends the watch
				}
				if f.Round() <= last {
					orderErr.Store(fmt.Errorf("watcher %d: round %d after %d", i, f.Round(), last))
					f.Release()
					return
				}
				last = f.Round()
				atomic.AddUint64(&healthy[i], 1)
				f.Release()
			}
		}(i, sub)
	}

	// Slow drip: drains one frame every 25 ms — far behind the round rate,
	// but each drain resets its consecutive-drop count, so it coalesces to
	// the newest round instead of being shed.
	dripStop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-dripStop:
				return
			case <-tick.C:
				if f := drip.TryNext(); f != nil {
					f.Release()
				}
			}
		}
	}()

	// The stalled watcher never drains: after MaxLag consecutive drops the
	// hub sheds it, and nobody else notices.
	waitUntil(t, 20*time.Second, "stalled subscriber shed", func() bool {
		return errors.Is(stalled.Err(), ErrStreamShed)
	})
	if hub.Shed() == 0 {
		t.Fatal("hub shed counter did not advance")
	}

	// Chaos mid-stream: the flaky link stalls, supervision degrades it, and
	// the stream keeps flowing for everyone still draining.
	chaosSrc.Arm(true)
	var v SiteVerdict
	waitUntil(t, 20*time.Second, "degraded coverage over chaos", func() bool {
		return eng.VerdictInto(&v) == nil && v.Coverage.Degraded()
	})
	before := [healthyN]uint64{}
	for i := range before {
		before[i] = atomic.LoadUint64(&healthy[i])
	}
	waitUntil(t, 20*time.Second, "healthy watchers advancing through chaos", func() bool {
		for i := range healthy {
			if atomic.LoadUint64(&healthy[i]) <= before[i]+3 {
				return false
			}
		}
		return true
	})

	// The engine's scoring loop must not have been held back by the stalled
	// or slow subscribers: the steady link keeps retiring windows.
	m := eng.Metrics()
	waitUntil(t, 20*time.Second, "scoring rate holds", func() bool {
		cur := eng.Metrics()
		return cur.WindowsScored > m.WindowsScored
	})

	if err := drip.Err(); err != nil {
		t.Fatalf("slow-drip subscriber was dropped: %v", err)
	}
	if hub.Dropped() == 0 {
		t.Fatal("latest-wins coalescing never dropped a frame for the laggards")
	}

	close(dripStop)
	notifyStop()
	hub.Close()
	wg.Wait()
	if err, ok := orderErr.Load().(error); ok && err != nil {
		t.Fatal(err)
	}
}

// TestServeAPIAllLinksDown drives the HTTP API end to end with every link's
// source stalled: /v1/verdict must answer 200 with a first-class
// inconclusive document whose coverage counts the outage — never an error
// string — and /metrics keeps serving through the blackout.
func TestServeAPIAllLinksDown(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 1, WindowSize: 25, Fusion: KOfN{K: 1}})
	if err := eng.EnableSupervision(SupervisionPolicy{
		StaleAfter: 50 * time.Millisecond,
		DownAfter:  150 * time.Millisecond,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	const links = 2
	chaos := make([]*ChaosSource, 0, links)
	for i := 1; i <= links; i++ {
		sys, err := NewLinkCaseSystem(i, SchemeSubcarrier, 50+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		src, err := eng.AddChaosLink(fmt.Sprintf("l%d", i), sys, ChaosConfig{StallEvery: 1, StallFor: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		chaos = append(chaos, src)
	}
	if err := eng.Calibrate(60); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(ctx, 0) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}()
	defer eng.CloseStream()

	// Let every link fuse a first round — a link that never scored has no
	// decision to exclude — then stall the whole fleet.
	var v SiteVerdict
	waitUntil(t, 20*time.Second, "all links fused", func() bool {
		return eng.VerdictInto(&v) == nil && v.Coverage.Links == links && !v.Coverage.Degraded()
	})
	for _, src := range chaos {
		src.Arm(true)
	}
	waitUntil(t, 20*time.Second, "whole fleet down", func() bool {
		return eng.VerdictInto(&v) == nil && v.Inconclusive && v.Coverage.Down == links
	})

	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/verdict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 — an outage is a document, not an error", resp.StatusCode)
	}
	var doc struct {
		Present      bool `json:"present"`
		Inconclusive bool `json:"inconclusive"`
		Coverage     struct {
			Links    int  `json:"links"`
			Fused    int  `json:"fused"`
			Down     int  `json:"down"`
			Degraded bool `json:"degraded"`
		} `json:"coverage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Inconclusive || doc.Present {
		t.Fatalf("verdict doc = %+v, want inconclusive", doc)
	}
	if doc.Coverage.Links != links || doc.Coverage.Down != links || !doc.Coverage.Degraded {
		t.Fatalf("coverage = %+v, want %d/%d links down", doc.Coverage, links, links)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
}

// TestEngineSubscribeFacade exercises the facade's own stream wiring: the
// first Subscribe lazily starts the hub, the OnRound hook publishes one
// frame per fused round, and CloseStream ends every subscription cleanly.
func TestEngineSubscribeFacade(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 1, WindowSize: 25, Fusion: KOfN{K: 1}})
	sys, err := NewLinkCaseSystem(1, SchemeSubcarrier, 61)
	if err != nil {
		t.Fatal(err)
	}
	mid := sys.Scenario.LinkMidpoint()
	if err := eng.AddLink("solo", sys, &Person{X: mid.X, Y: mid.Y}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Calibrate(60); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.CloseStream()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(ctx, 20) }()

	f, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	var doc struct {
		Round   uint64 `json:"round"`
		Present bool   `json:"present"`
		Total   int    `json:"total"`
	}
	_, js, _ := bytes.Cut(f.Bytes(), []byte("data: "))
	if jerr := json.Unmarshal(js, &doc); jerr != nil {
		t.Fatalf("streamed frame is not a verdict document: %v (%q)", jerr, f.Bytes())
	}
	f.Release()
	if doc.Total != 1 || doc.Round < 1 {
		t.Fatalf("streamed verdict = %+v, want the solo link's vote", doc)
	}
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	eng.CloseStream()
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Next after CloseStream = %v, want ErrStreamClosed", err)
	}
}
