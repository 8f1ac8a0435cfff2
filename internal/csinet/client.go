package csinet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"mlink/internal/csi"
)

// ErrLinkDown is the typed "transport is gone" error: a Redialer's Next
// wraps every receive failure in it, so supervision layers can match the
// condition with errors.Is regardless of the underlying cause.
var ErrLinkDown = errors.New("csinet: link down")

// Client collects CSI frames from a csinet server — the detector side of
// the distributed deployment.
//
// RecvInto is single-goroutine (the stream is ordered); Close,
// SetRecvDeadline, and LastActivity are safe from any goroutine.
type Client struct {
	conn    net.Conn
	hello   Hello
	mr      MessageReader
	lastMsg atomic.Int64 // unix nanos of the last message, heartbeats included
}

// Dial connects to a csinet server and consumes the opening Hello. The
// context bounds connection establishment and the Hello exchange.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetReadDeadline(deadline)
	}
	c := &Client{conn: conn}
	msgType, payload, err := c.mr.Read(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if msgType != TypeHello {
		conn.Close()
		return nil, fmt.Errorf("first message type %d: %w", msgType, ErrMalformed)
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	c.hello = hello
	c.lastMsg.Store(time.Now().UnixNano())
	return c, nil
}

// Hello returns the stream metadata announced by the server.
func (c *Client) Hello() Hello { return c.hello }

// LastActivity is when the last message — frame or heartbeat — arrived.
// Heartbeats never surface as frames, so this is the liveness signal
// staleness detection should watch.
func (c *Client) LastActivity() time.Time {
	return time.Unix(0, c.lastMsg.Load())
}

// recvPayload blocks for the next frame message's payload (aliasing the
// client's reusable buffer). Heartbeats are consumed silently; a closed
// stream surfaces as io.EOF.
func (c *Client) recvPayload() ([]byte, error) {
	for {
		msgType, payload, err := c.mr.Read(c.conn)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, io.EOF
			}
			return nil, err
		}
		c.lastMsg.Store(time.Now().UnixNano())
		switch msgType {
		case TypeFrame:
			return payload, nil
		case TypeHeartbeat:
			continue
		default:
			return nil, fmt.Errorf("unexpected message type %d mid-stream: %w", msgType, ErrMalformed)
		}
	}
}

// RecvInto blocks for the next CSI frame and decodes it into f, reusing
// its storage when the shape matches — the allocation-free ingest path
// (pair it with a csi.FramePool). Heartbeats are consumed silently; a
// closed stream surfaces as io.EOF.
func (c *Client) RecvInto(f *csi.Frame) error {
	payload, err := c.recvPayload()
	if err != nil {
		return err
	}
	return DecodeFrameInto(f, payload)
}

// SetRecvDeadline bounds the next RecvInto calls.
func (c *Client) SetRecvDeadline(t time.Time) error {
	return c.conn.SetReadDeadline(t)
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }
