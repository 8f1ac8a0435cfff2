package serve

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/engine"
)

// stubEngine implements the server's Engine interface over stubSource plus a
// canned metrics block.
type stubEngine struct {
	stubSource
}

func (s *stubEngine) MetricsInto(m *engine.Metrics) {
	perLink := m.PerLink[:0]
	perLink = append(perLink, engine.LinkMetrics{
		ID: "l0", Calibrated: true, MeanMu: 0.5, Threshold: 0.25,
		WindowsScored: 10, LastScore: 0.1, Present: true, Lifecycle: adapt.LifecycleLive,
	})
	shards := m.Shards[:0]
	shards = append(shards, engine.ShardMetrics{WindowsScored: 10, Steals: 1, Utilization: 0.5})
	*m = engine.Metrics{Links: 1, WindowsScored: 10, FramesSeen: 250, ScoresPerSec: 5, Steals: 1, Rounds: 3, PerLink: perLink, Shards: shards}
}

func newTestServer(t *testing.T, hub *Hub, logf func(string, ...any)) (*httptest.Server, *stubEngine) {
	t.Helper()
	eng := &stubEngine{}
	srv := NewServer(eng, Options{Hub: hub, Logf: logf, WriteTimeout: time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func TestServerVerdictEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, nil, nil)
	resp, err := http.Get(ts.URL + "/v1/verdict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("missing X-Trace-Id from tracing middleware")
	}
	var doc struct {
		Present bool    `json:"present"`
		Score   float64 `json:"score"`
		Policy  string  `json:"policy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Present || doc.Policy != "1-of-n" {
		t.Fatalf("verdict = %+v", doc)
	}
}

// TestServerVerdictNoDecisions: before any link scores, the endpoint serves
// a well-formed inconclusive document, not an error string.
func TestServerVerdictNoDecisions(t *testing.T) {
	ts, eng := newTestServer(t, nil, nil)
	eng.mu.Lock()
	eng.err = engine.ErrNoDecisions
	eng.mu.Unlock()
	resp, err := http.Get(ts.URL + "/v1/verdict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with an inconclusive document", resp.StatusCode)
	}
	var doc struct {
		Inconclusive bool `json:"inconclusive"`
		Present      bool `json:"present"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Inconclusive || doc.Present {
		t.Fatalf("doc = %+v, want inconclusive", doc)
	}
}

func TestServerGzip(t *testing.T) {
	ts, _ := newTestServer(t, nil, nil)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/links", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("content-encoding = %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Links []struct {
			ID string `json:"id"`
		} `json:"links"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("gunzipped body is not JSON: %v", err)
	}
	if len(doc.Links) != 1 || doc.Links[0].ID != "l0" {
		t.Fatalf("links doc = %+v", doc)
	}
}

func TestServerPrometheusMetrics(t *testing.T) {
	src := &stubSource{}
	hub := NewHub(src, HubOptions{})
	defer hub.Close()
	ts, _ := newTestServer(t, hub, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE mlink_windows_scored_total counter",
		"mlink_windows_scored_total 10",
		"# TYPE mlink_fusion_rounds_total counter",
		"mlink_fusion_rounds_total 3",
		`mlink_link_present{link="l0"} 1`,
		`mlink_shard_utilization{shard="0"} 0.5`,
		"mlink_stream_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestServerStream drives the SSE endpoint end to end: subscribe over HTTP,
// publish rounds, and read back well-formed, ordered events.
func TestServerStream(t *testing.T) {
	src := &stubSource{}
	hub := NewHub(src, HubOptions{})
	defer hub.Close()
	ts, _ := newTestServer(t, hub, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	// Wait for the handler's subscription to register before publishing.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if err := hub.PublishRound(); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(resp.Body)
	lastID := uint64(0)
	for events := 0; events < 3; events++ {
		var event, id, data string
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("stream read: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			if line == "" {
				break
			}
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "id: "):
				id = line[len("id: "):]
			case strings.HasPrefix(line, "data: "):
				data = line[len("data: "):]
			}
		}
		if event != "verdict" {
			t.Fatalf("event = %q", event)
		}
		var doc struct {
			Present bool `json:"present"`
		}
		if err := json.Unmarshal([]byte(data), &doc); err != nil {
			t.Fatalf("event data is not JSON: %v (%q)", err, data)
		}
		var n uint64
		if _, err := json.Number(id).Int64(); err != nil {
			t.Fatalf("id = %q", id)
		} else {
			v, _ := json.Number(id).Int64()
			n = uint64(v)
		}
		if n <= lastID {
			t.Fatalf("event ids not increasing: %d after %d", n, lastID)
		}
		lastID = n
	}
	cancel()
}

func TestServerTraceLog(t *testing.T) {
	var mu struct {
		lines []string
	}
	var logMu = make(chan struct{}, 1)
	logMu <- struct{}{}
	logf := func(format string, args ...any) {
		<-logMu
		mu.lines = append(mu.lines, format)
		logMu <- struct{}{}
	}
	ts, _ := newTestServer(t, nil, logf)
	if _, err := http.Get(ts.URL + "/v1/verdict"); err != nil {
		t.Fatal(err)
	}
	<-logMu
	n := len(mu.lines)
	logMu <- struct{}{}
	if n == 0 {
		t.Fatal("tracing middleware logged nothing")
	}
}

// TestStatusWriterUnwrap pins that http.ResponseController reaches the
// wrapped writer's Flush through the trace middleware, as SSE needs.
func TestStatusWriterUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	if sw.Unwrap() != rec {
		t.Fatal("Unwrap does not return the wrapped writer")
	}
	if err := http.NewResponseController(sw).Flush(); err != nil || !rec.Flushed {
		t.Fatalf("flush through the middleware writer: err=%v flushed=%v", err, rec.Flushed)
	}
}
