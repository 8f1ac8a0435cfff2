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
// Server serves a fresh Source per accepted connection; Client.RecvInto
// decodes the next frame into a caller-owned one and surfaces a clean end of
// stream as io.EOF.
//
// Both ends are hardened for long-lived deployments. On the receive side,
// Redialer is the engine's link source and the one cmd/mlink-detect runs:
// its Next/Recycle pair reuses frames from a csi.FramePool, so a steady
// stream allocates nothing per frame, and every receive failure surfaces as
// the typed ErrLinkDown, wrapping io.EOF when the collector closed the
// stream cleanly. It keeps the address for reconnects (the
// supervise.Reconnector contract), so a supervised engine link redials a
// restarted collector without tearing the link down, while an unsupervised
// one ends at the clean close. On the serve side, a
// per-message write deadline (DefaultWriteTimeout, 30 s, unless a deployment
// sets Server.WriteTimeout) bounds how long a wedged client that stops
// reading can back up a stream goroutine: the deadline trips, the client is
// dropped, and every other client keeps streaming.
package csinet
