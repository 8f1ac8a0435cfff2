package csinet

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"mlink/internal/csi"
)

// testHello returns minimal valid stream metadata.
func testHello() Hello {
	return Hello{CenterFreqHz: 2.4e9, NumAntennas: 1, NumSubcarriers: 2, Indices: []int16{-1, 1}}
}

// testFrame returns a minimal valid frame.
func testFrame() *csi.Frame {
	f := csi.NewFrame(1, 2)
	f.CSI[0][0], f.CSI[0][1] = 1+2i, 3-4i
	f.RSSI[0] = -40
	return f
}

// rawServer accepts one connection and hands it to fn.
func rawServer(t *testing.T, fn func(conn net.Conn)) net.Addr {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	return lis.Addr()
}

func dialT(t *testing.T, addr net.Addr) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// recv receives the next frame into a fresh one.
func recv(c *Client) (*csi.Frame, error) {
	f := new(csi.Frame)
	if err := c.RecvInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// recvN receives exactly n frames into fresh ones.
func recvN(c *Client, n int) ([]*csi.Frame, error) {
	out := make([]*csi.Frame, n)
	for i := range out {
		f, err := recv(c)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// TestClientServerClosesMidStream: a server that dies between frames must
// surface as a clean io.EOF on the next receive — including when the
// connection drops mid-message (a torn header or payload is an
// ErrUnexpectedEOF underneath, which the client folds into EOF so callers
// have exactly one end-of-stream signal).
func TestClientServerClosesMidStream(t *testing.T) {
	hello, err := EncodeHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(testFrame())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("between frames", func(t *testing.T) {
		addr := rawServer(t, func(conn net.Conn) {
			_ = WriteMessage(conn, TypeHello, hello)
			_ = WriteMessage(conn, TypeFrame, frame)
			// Abrupt close: no heartbeat, no goodbye.
		})
		c := dialT(t, addr)
		if _, err := recv(c); err != nil {
			t.Fatalf("first frame: %v", err)
		}
		if _, err := recv(c); !errors.Is(err, io.EOF) {
			t.Fatalf("recv after close = %v, want io.EOF", err)
		}
	})
	t.Run("mid message", func(t *testing.T) {
		addr := rawServer(t, func(conn net.Conn) {
			_ = WriteMessage(conn, TypeHello, hello)
			// Start a frame message but cut the connection after half the
			// payload.
			header := []byte{0x43, 0x53, 0x49, 0x4C, Version, TypeFrame, 0, 0, 0, byte(len(frame))}
			_, _ = conn.Write(header)
			_, _ = conn.Write(frame[:len(frame)/2])
		})
		c := dialT(t, addr)
		if _, err := recv(c); !errors.Is(err, io.EOF) {
			t.Fatalf("recv of torn message = %v, want io.EOF", err)
		}
	})
}

// TestClientShortAndCorruptFrames: malformed payloads must surface as typed
// protocol errors, not be silently skipped and not crash the decoder.
func TestClientShortAndCorruptFrames(t *testing.T) {
	hello, err := EncodeHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(testFrame())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("short frame payload", func(t *testing.T) {
		addr := rawServer(t, func(conn net.Conn) {
			_ = WriteMessage(conn, TypeHello, hello)
			// A syntactically complete message whose frame payload is
			// truncated: the length prefix and CRC are consistent, but the
			// frame inside is short.
			_ = WriteMessage(conn, TypeFrame, frame[:len(frame)-8])
			time.Sleep(50 * time.Millisecond)
		})
		c := dialT(t, addr)
		if _, err := recv(c); !errors.Is(err, ErrMalformed) {
			t.Fatalf("short frame err = %v, want ErrMalformed", err)
		}
	})
	t.Run("corrupt checksum", func(t *testing.T) {
		addr := rawServer(t, func(conn net.Conn) {
			_ = WriteMessage(conn, TypeHello, hello)
			// Hand-write a frame message with a bad CRC.
			header := []byte{0x43, 0x53, 0x49, 0x4C, Version, TypeFrame, 0, 0, 0, byte(len(frame))}
			_, _ = conn.Write(header)
			_, _ = conn.Write(frame)
			_, _ = conn.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF})
			time.Sleep(50 * time.Millisecond)
		})
		c := dialT(t, addr)
		if _, err := recv(c); !errors.Is(err, ErrBadCRC) {
			t.Fatalf("corrupt payload err = %v, want ErrBadCRC", err)
		}
	})
	t.Run("unexpected message type", func(t *testing.T) {
		addr := rawServer(t, func(conn net.Conn) {
			_ = WriteMessage(conn, TypeHello, hello)
			_ = WriteMessage(conn, 0x7F, nil)
			time.Sleep(50 * time.Millisecond)
		})
		c := dialT(t, addr)
		if _, err := recv(c); !errors.Is(err, ErrMalformed) {
			t.Fatalf("unknown type err = %v, want ErrMalformed", err)
		}
	})
}

// TestClientReconnect: after a server restart the collector dials again and
// resumes — each connection gets a fresh source from the factory.
func TestClientReconnect(t *testing.T) {
	newServer := func() *Server {
		srv, err := NewServer("127.0.0.1:0", testHello(), func() Source {
			n := 0
			return SourceFunc(func() (*csi.Frame, error) {
				if n >= 3 {
					return nil, io.EOF
				}
				n++
				return testFrame(), nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(context.Background()) //nolint:errcheck — ends on Close
		return srv
	}

	srv := newServer()
	c := dialT(t, srv.Addr())
	if _, err := recvN(c, 3); err != nil {
		t.Fatalf("first connection: %v", err)
	}
	// The server dies; in-flight reads end with EOF.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := recv(c); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after server death = %v, want io.EOF", err)
	}

	// The daemon comes back (new address — a restart, not a transparent
	// failover); the collector reconnects and streams again.
	srv2 := newServer()
	defer srv2.Close()
	c2 := dialT(t, srv2.Addr())
	if c2.Hello().NumSubcarriers != 2 {
		t.Fatalf("reconnect hello = %+v", c2.Hello())
	}
	frames, err := recvN(c2, 3)
	if err != nil {
		t.Fatalf("reconnected stream: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames after reconnect", len(frames))
	}
}
