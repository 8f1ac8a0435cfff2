package csinet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"mlink/internal/csi"
)

func sampleFrame(seq uint32) *csi.Frame {
	f := &csi.Frame{
		Seq:             seq,
		TimestampMicros: uint64(seq) * 20000,
		CSI:             make([][]complex128, 3),
		RSSI:            []float64{-40.5, -41.25, -39.75},
	}
	rng := rand.New(rand.NewSource(int64(seq)))
	for a := range f.CSI {
		f.CSI[a] = make([]complex128, 30)
		for k := range f.CSI[a] {
			f.CSI[a][k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame(7)
	b, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.TimestampMicros != f.TimestampMicros {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for a := range f.CSI {
		if got.RSSI[a] != f.RSSI[a] {
			t.Fatalf("rssi[%d] mismatch", a)
		}
		for k := range f.CSI[a] {
			if got.CSI[a][k] != f.CSI[a][k] {
				t.Fatalf("csi[%d][%d] mismatch", a, k)
			}
		}
	}
}

func TestEncodeFrameRejectsInvalid(t *testing.T) {
	if _, err := EncodeFrame(&csi.Frame{}); err == nil {
		t.Fatal("empty frame encoded")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := DecodeFrame([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short frame err = %v", err)
	}
	good, err := EncodeFrame(sampleFrame(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(good[:len(good)-3]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated frame err = %v", err)
	}
	// Zero-dimension frame body.
	zero := make([]byte, 14)
	if _, err := DecodeFrame(zero); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-dim err = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{
		CenterFreqHz:   2.462e9,
		NumAntennas:    3,
		NumSubcarriers: 4,
		Indices:        []int16{-28, -1, 1, 28},
	}
	b, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.CenterFreqHz != h.CenterFreqHz || got.NumAntennas != 3 {
		t.Fatalf("hello mismatch: %+v", got)
	}
	for i := range h.Indices {
		if got.Indices[i] != h.Indices[i] {
			t.Fatalf("index %d mismatch: %d vs %d", i, got.Indices[i], h.Indices[i])
		}
	}
}

func TestHelloErrors(t *testing.T) {
	if _, err := EncodeHello(Hello{NumSubcarriers: 3, Indices: []int16{1}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("mismatched hello err = %v", err)
	}
	if _, err := DecodeHello([]byte{1}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short hello err = %v", err)
	}
	if _, err := DecodeHello(make([]byte, 12)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("wrong-length hello err = %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello csi")
	if err := WriteMessage(&buf, TypeFrame, payload); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := new(MessageReader).Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != TypeFrame || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip = %d %q", msgType, got)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := new(MessageReader).Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != TypeHeartbeat || len(got) != 0 {
		t.Fatalf("heartbeat = %d %v", msgType, got)
	}
}

func TestMessageCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeFrame, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Corrupt magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, _, err := new(MessageReader).Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v", err)
	}
	// Corrupt version.
	bad = append([]byte(nil), raw...)
	bad[4] = 99
	if _, _, err := new(MessageReader).Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version err = %v", err)
	}
	// Corrupt payload → CRC failure.
	bad = append([]byte(nil), raw...)
	bad[12] ^= 0xFF
	if _, _, err := new(MessageReader).Read(bytes.NewReader(bad)); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("bad crc err = %v", err)
	}
	// Truncated stream.
	if _, _, err := new(MessageReader).Read(bytes.NewReader(raw[:5])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestWriteMessageTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeFrame, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}
}

func defaultHello() Hello {
	idx := make([]int16, 30)
	for i := range idx {
		idx[i] = int16(i)
	}
	return Hello{CenterFreqHz: 2.462e9, NumAntennas: 3, NumSubcarriers: 30, Indices: idx}
}

func TestServerClientStream(t *testing.T) {
	const total = 12
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

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := Dial(ctx, srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if client.Hello().NumAntennas != 3 {
		t.Fatalf("hello = %+v", client.Hello())
	}
	frames, err := recvN(client, total)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if f.Seq != uint32(i) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
		if f.NumAntennas() != 3 || f.NumSubcarriers() != 30 {
			t.Fatalf("frame %d shape %dx%d", i, f.NumAntennas(), f.NumSubcarriers())
		}
	}
	// After the source ends, the stream closes: the next receive is EOF.
	if err := client.SetRecvDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := recv(client); !errors.Is(err, io.EOF) {
		t.Fatalf("post-stream recv err = %v, want EOF", err)
	}
}

func TestServerMultipleClients(t *testing.T) {
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
	defer srv.Close()
	go srv.Serve(context.Background()) //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Both clients must independently receive seq 0,1,2... (own sources).
	for i := 0; i < 2; i++ {
		client, err := Dial(ctx, srv.Addr().String())
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		frames, err := recvN(client, 3)
		if err != nil {
			t.Fatalf("client %d recv: %v", i, err)
		}
		for j, f := range frames {
			if f.Seq != uint32(j) {
				t.Fatalf("client %d frame %d seq %d", i, j, f.Seq)
			}
		}
		client.Close()
	}
}

func TestServerGracefulClose(t *testing.T) {
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
	served := make(chan error, 1)
	go func() { served <- srv.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := Dial(ctx, srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := recvN(client, 2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil && !errors.Is(err, io.EOF) {
		t.Logf("close: %v", err)
	}
	select {
	case <-served:
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Client eventually sees EOF.
	if err := client.SetRecvDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := recv(client); err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			// A reset is acceptable on abrupt close of a full pipe.
			return
		}
	}
}

func TestServerContextCancel(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", defaultHello(), func() Source {
		return SourceFunc(func() (*csi.Frame, error) { return sampleFrame(0), nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serve err = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not exit on context cancel")
	}
}

func TestDialErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestNewServerNilFactory(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", defaultHello(), nil); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// TestServerPacing checks that the server spaces frames by its Interval.
// The clock is the server's own: the source stamps each frame as the server
// takes it, the first right after the ticker starts and each later one
// after a tick, so the fifth comes ≥ 40 ms after the first however late the
// test goroutine runs. A clock in the test goroutine, started at Dial's
// return or at the first frame's receipt, starts no earlier than that
// goroutine is scheduled, by which time frames already sent sit in the
// socket buffer, and loses the tick gaps they spanned.
func TestServerPacing(t *testing.T) {
	taken := make(chan time.Time, 16)
	srv, err := NewServer("127.0.0.1:0", defaultHello(), func() Source {
		n := uint32(0)
		return SourceFunc(func() (*csi.Frame, error) {
			select {
			case taken <- time.Now():
			default:
			}
			f := sampleFrame(n)
			n++
			return f, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Interval = 10 * time.Millisecond
	defer srv.Close()
	go srv.Serve(context.Background()) //nolint:errcheck

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := Dial(ctx, srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := recvN(client, 5); err != nil {
		t.Fatal(err)
	}
	// The fifth frame was taken before it was sent, so its stamp is queued.
	var stamps [5]time.Time
	for i := range stamps {
		stamps[i] = <-taken
	}
	// 5 frames at 10 ms pacing span four ticks, ≥ ~40 ms.
	if elapsed := stamps[4].Sub(stamps[0]); elapsed < 30*time.Millisecond {
		t.Fatalf("pacing too fast: %v", elapsed)
	}
}
