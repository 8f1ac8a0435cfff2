// Package csinet is the distributed CSI collection layer: it plays the role
// the Linux CSI Tool's netlink/socket export plays in the paper's testbed
// (§V-A), but over TCP so a receiver daemon (cmd/csid) can stream CSI
// frames to a detached detector process (cmd/mlink-detect), or feed links
// of the multi-link monitoring engine (internal/engine) on another host.
//
// Wire format: every message is
//
//	magic(4) | version(1) | type(1) | payloadLen(4, big endian) | payload | crc32(4)
//
// with the IEEE CRC-32 computed over the payload. Streams open with a Hello
// message describing the link (centre frequency, antenna count, subcarrier
// indices) followed by Frame messages; Heartbeats keep idle streams alive.
// Server serves a fresh Source per accepted connection; Client.Recv yields
// decoded frames and surfaces a clean end of stream as io.EOF.
//
// Both ends are hardened for long-lived deployments. On the receive side,
// Client.RecvInto decodes into a caller-owned frame and NewFramePool-backed
// Client.Next/Recycle reuse pooled frames, so a steady stream allocates
// nothing per frame; transport failures surface as the typed ErrLinkDown.
// Redialer wraps a Client with address-keeping reconnect support (the
// supervise.Reconnector contract), so a monitoring engine can redial a
// restarted collector without tearing the link down. On the serve side, a
// per-message write deadline (DefaultWriteTimeout, 30 s, unless a deployment
// sets Server.WriteTimeout) bounds how long a wedged client that stops
// reading can back up a stream goroutine: the deadline trips, the client is
// dropped, and every other client keeps streaming.
package csinet
