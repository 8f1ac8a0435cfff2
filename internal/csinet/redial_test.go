package csinet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mlink/internal/csi"
)

func TestDecodeFrameIntoReusesBuffers(t *testing.T) {
	src := sampleFrame(9)
	b, err := EncodeFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := csi.NewFrame(3, 30)
	rssiPtr := &dst.RSSI[0]
	csiPtr := &dst.CSI[0][0]
	if err := DecodeFrameInto(dst, b); err != nil {
		t.Fatal(err)
	}
	if &dst.RSSI[0] != rssiPtr || &dst.CSI[0][0] != csiPtr {
		t.Fatal("matching-shape decode reallocated the frame's buffers")
	}
	if dst.Seq != src.Seq || dst.TimestampMicros != src.TimestampMicros {
		t.Fatalf("metadata mismatch: %+v", dst)
	}
	for a := range src.CSI {
		if dst.RSSI[a] != src.RSSI[a] {
			t.Fatalf("rssi[%d] mismatch", a)
		}
		for k := range src.CSI[a] {
			if dst.CSI[a][k] != src.CSI[a][k] {
				t.Fatalf("csi[%d][%d] mismatch", a, k)
			}
		}
	}

	// A wrong-shape destination is rebuilt rather than rejected.
	small := csi.NewFrame(1, 4)
	if err := DecodeFrameInto(small, b); err != nil {
		t.Fatal(err)
	}
	if small.NumAntennas() != 3 || small.NumSubcarriers() != 30 {
		t.Fatalf("reshaped frame is %dx%d", small.NumAntennas(), small.NumSubcarriers())
	}
}

func TestClientRecvInto(t *testing.T) {
	const total = 8
	srv, err := NewServer("127.0.0.1:0", defaultHello(), func() Source {
		n := uint32(0)
		return SourceFunc(func() (*csi.Frame, error) {
			if n >= total {
				return nil, io.EOF
			}
			f := sampleFrame(n)
			n++
			return f, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(context.Background()) //nolint:errcheck — returns on Close

	c := dialT(t, srv.Addr())
	defer c.Close()
	f := csi.NewFrame(3, 30)
	csiPtr := &f.CSI[0][0]
	for i := uint32(0); i < total; i++ {
		if err := c.RecvInto(f); err != nil {
			t.Fatalf("RecvInto %d: %v", i, err)
		}
		if f.Seq != i {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}
	if &f.CSI[0][0] != csiPtr {
		t.Fatal("RecvInto reallocated the caller's frame")
	}
	if err := c.RecvInto(f); !errors.Is(err, io.EOF) {
		t.Fatalf("RecvInto after stream end = %v, want io.EOF", err)
	}
	if c.LastActivity().IsZero() {
		t.Fatal("LastActivity never recorded")
	}
}

// TestRedialerReconnectsAcrossRestart kills the server mid-stream and
// restarts it on the same address: Next must fail with ErrLinkDown, and
// Reconnect must re-dial, re-handshake, and resume pooled delivery.
func TestRedialerReconnectsAcrossRestart(t *testing.T) {
	newServer := func(addr string) *Server {
		srv, err := NewServer(addr, defaultHello(), func() Source {
			n := uint32(0)
			return SourceFunc(func() (*csi.Frame, error) {
				f := sampleFrame(n)
				n++
				return f, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(context.Background()) //nolint:errcheck — ends on Close
		return srv
	}
	srv := newServer("127.0.0.1:0")
	addr := srv.Addr().String()

	r := Redial(addr)
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	if h := r.Hello(); h.NumAntennas != 3 {
		t.Fatalf("hello after connect = %+v", h)
	}
	for i := 0; i < 3; i++ {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		r.Recycle(f)
	}
	if r.LastActivity().IsZero() {
		t.Fatal("no activity recorded while streaming")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The dead transport surfaces as a typed link-down error once the
	// frames already in the socket buffers are drained...
	var nextErr error
	drainDeadline := time.Now().Add(10 * time.Second)
	for nextErr == nil {
		if time.Now().After(drainDeadline) {
			t.Fatal("Next kept succeeding after server death")
		}
		var f *csi.Frame
		if f, nextErr = r.Next(); nextErr == nil {
			r.Recycle(f)
		}
	}
	if !errors.Is(nextErr, ErrLinkDown) {
		t.Fatalf("Next after server death = %v, want ErrLinkDown", nextErr)
	}
	// ...and stays typed while the peer is away.
	if _, err := r.Next(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Next while down = %v, want ErrLinkDown", err)
	}

	srv2 := newServer(addr)
	defer srv2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := r.Reconnect(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected to the restarted server")
		}
		time.Sleep(20 * time.Millisecond)
	}
	f, err := r.Next()
	if err != nil {
		t.Fatalf("Next after reconnect: %v", err)
	}
	if f.NumAntennas() != 3 || f.NumSubcarriers() != 30 {
		t.Fatalf("reconnected frame shape %dx%d", f.NumAntennas(), f.NumSubcarriers())
	}
	r.Recycle(f)
}

// TestRedialerCleanCloseIsEOF: a stream the server ends cleanly surfaces
// from Next as ErrLinkDown wrapping io.EOF, so an unsupervised consumer can
// tell the end of the stream from a broken transport.
func TestRedialerCleanCloseIsEOF(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", defaultHello(), func() Source {
		n := uint32(0)
		return SourceFunc(func() (*csi.Frame, error) {
			if n == 2 {
				return nil, io.EOF
			}
			f := sampleFrame(n)
			n++
			return f, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(context.Background()) //nolint:errcheck — ends on Close

	r := Redial(srv.Addr().String())
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	if h := r.Hello(); h.NumAntennas != 3 || h.NumSubcarriers != 30 {
		t.Fatalf("Hello() = %+v", h)
	}
	for i := 0; i < 2; i++ {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		r.Recycle(f)
	}
	_, err = r.Next()
	if !errors.Is(err, io.EOF) || !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Next after a clean close = %v, want io.EOF and ErrLinkDown", err)
	}
}

// TestServerDisconnectsSlowClient wedges one client (it connects and never
// reads) while a healthy client streams: the write deadline must disconnect
// the wedged client instead of blocking its stream goroutine forever.
func TestServerDisconnectsSlowClient(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", defaultHello(), func() Source {
		n := uint32(0)
		return SourceFunc(func() (*csi.Frame, error) {
			f := sampleFrame(n)
			n++
			return f, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.WriteTimeout = 100 * time.Millisecond
	defer srv.Close()
	go srv.Serve(context.Background()) //nolint:errcheck — returns on Close

	// The wedge: a raw TCP connection that never reads a byte, so the
	// server's writes back up until the deadline trips.
	wedged, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()

	healthy := dialT(t, srv.Addr())
	defer healthy.Close()

	// The healthy client reads until the test closes it: a client that
	// stopped reading early would back up and be shed like the wedge.
	var healthyFrames atomic.Uint64
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		f := csi.NewFrame(3, 30)
		for {
			if err := healthy.RecvInto(f); err != nil {
				return
			}
			healthyFrames.Add(1)
		}
	}()

	// The healthy client must stream freely the whole time the wedged one
	// is backing up, and the server must shed the wedged client.
	deadline := time.Now().Add(15 * time.Second)
	for srv.ClientCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("both clients never connected (%d clients)", srv.ClientCount())
		}
		time.Sleep(time.Millisecond)
	}
	for srv.ClientCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("wedged client never disconnected (%d clients)", srv.ClientCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for healthyFrames.Load() < 300 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	healthy.Close()
	<-stop
	if got := healthyFrames.Load(); got < 300 {
		t.Fatalf("healthy client got %d frames, want 300", got)
	}
}
