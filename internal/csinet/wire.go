package csinet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"mlink/internal/csi"
)

// Protocol constants.
const (
	// Magic marks every message ("CSIL").
	Magic uint32 = 0x4353494C
	// Version is the wire protocol version.
	Version byte = 1
	// MaxPayload bounds decodable payloads (a 16×256 CSI frame is ~64 KiB;
	// 1 MiB leaves ample headroom while stopping corrupt lengths).
	MaxPayload = 1 << 20
)

// Message types.
const (
	// TypeHello opens a stream with link metadata.
	TypeHello byte = iota + 1
	// TypeFrame carries one CSI frame.
	TypeFrame
	// TypeHeartbeat keeps idle connections alive.
	TypeHeartbeat
)

// Wire-protocol errors.
var (
	ErrBadMagic   = errors.New("csinet: bad magic")
	ErrBadVersion = errors.New("csinet: unsupported version")
	ErrBadCRC     = errors.New("csinet: payload checksum mismatch")
	ErrTooLarge   = errors.New("csinet: payload too large")
	ErrMalformed  = errors.New("csinet: malformed payload")
)

// Hello is the stream-opening metadata message.
type Hello struct {
	// CenterFreqHz is the carrier centre frequency.
	CenterFreqHz float64
	// NumAntennas and NumSubcarriers describe frame shapes.
	NumAntennas    uint8
	NumSubcarriers uint8
	// Indices are the subcarrier indices.
	Indices []int16
}

// EncodeHello serializes a Hello payload.
func EncodeHello(h Hello) ([]byte, error) {
	if int(h.NumSubcarriers) != len(h.Indices) {
		return nil, fmt.Errorf("%d indices for %d subcarriers: %w", len(h.Indices), h.NumSubcarriers, ErrMalformed)
	}
	buf := make([]byte, 0, 10+2*len(h.Indices))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(h.CenterFreqHz))
	buf = append(buf, h.NumAntennas, h.NumSubcarriers)
	for _, idx := range h.Indices {
		buf = binary.BigEndian.AppendUint16(buf, uint16(idx))
	}
	return buf, nil
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	if len(b) < 10 {
		return Hello{}, fmt.Errorf("hello of %d bytes: %w", len(b), ErrMalformed)
	}
	h := Hello{
		CenterFreqHz:   math.Float64frombits(binary.BigEndian.Uint64(b[0:8])),
		NumAntennas:    b[8],
		NumSubcarriers: b[9],
	}
	want := 10 + 2*int(h.NumSubcarriers)
	if len(b) != want {
		return Hello{}, fmt.Errorf("hello length %d, want %d: %w", len(b), want, ErrMalformed)
	}
	h.Indices = make([]int16, h.NumSubcarriers)
	for i := range h.Indices {
		h.Indices[i] = int16(binary.BigEndian.Uint16(b[10+2*i:]))
	}
	return h, nil
}

// EncodeFrame serializes a CSI frame payload:
// seq(4) | tsMicros(8) | nAnt(1) | nSub(1) | rssi(8·nAnt) | csi(16·nAnt·nSub).
func EncodeFrame(f *csi.Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	nAnt := f.NumAntennas()
	nSub := f.NumSubcarriers()
	if nAnt > 255 || nSub > 255 {
		return nil, fmt.Errorf("frame %dx%d exceeds wire limits: %w", nAnt, nSub, ErrMalformed)
	}
	buf := make([]byte, 0, 14+8*nAnt+16*nAnt*nSub)
	buf = binary.BigEndian.AppendUint32(buf, f.Seq)
	buf = binary.BigEndian.AppendUint64(buf, f.TimestampMicros)
	buf = append(buf, byte(nAnt), byte(nSub))
	for _, r := range f.RSSI {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r))
	}
	for _, row := range f.CSI {
		for _, v := range row {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(real(v)))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(imag(v)))
		}
	}
	return buf, nil
}

// DecodeFrameInto parses a CSI frame payload into a caller-provided frame,
// reusing its RSSI and CSI storage when the shape matches (the pooled
// ingest path). On a shape change the rows are rebuilt as slices of one
// contiguous backing array, NewFrame's layout.
func DecodeFrameInto(f *csi.Frame, b []byte) error {
	if len(b) < 14 {
		return fmt.Errorf("frame of %d bytes: %w", len(b), ErrMalformed)
	}
	nAnt := int(b[12])
	nSub := int(b[13])
	want := 14 + 8*nAnt + 16*nAnt*nSub
	if len(b) != want {
		return fmt.Errorf("frame length %d, want %d: %w", len(b), want, ErrMalformed)
	}
	if nAnt == 0 || nSub == 0 {
		return fmt.Errorf("empty frame dimensions: %w", ErrMalformed)
	}
	f.Seq = binary.BigEndian.Uint32(b[0:4])
	f.TimestampMicros = binary.BigEndian.Uint64(b[4:12])
	if len(f.RSSI) != nAnt {
		f.RSSI = make([]float64, nAnt)
	}
	reshape := len(f.CSI) != nAnt
	if !reshape {
		for _, row := range f.CSI {
			if len(row) != nSub {
				reshape = true
				break
			}
		}
	}
	if reshape {
		backing := make([]complex128, nAnt*nSub)
		f.CSI = make([][]complex128, nAnt)
		for i := range f.CSI {
			f.CSI[i] = backing[i*nSub : (i+1)*nSub : (i+1)*nSub]
		}
	}
	off := 14
	for i := range f.RSSI {
		f.RSSI[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	for a := 0; a < nAnt; a++ {
		row := f.CSI[a]
		for k := 0; k < nSub; k++ {
			re := math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
			im := math.Float64frombits(binary.BigEndian.Uint64(b[off+8:]))
			row[k] = complex(re, im)
			off += 16
		}
	}
	return nil
}

// DecodeFrame parses a CSI frame payload.
func DecodeFrame(b []byte) (*csi.Frame, error) {
	if len(b) < 14 {
		return nil, fmt.Errorf("frame of %d bytes: %w", len(b), ErrMalformed)
	}
	f := &csi.Frame{
		Seq:             binary.BigEndian.Uint32(b[0:4]),
		TimestampMicros: binary.BigEndian.Uint64(b[4:12]),
	}
	nAnt := int(b[12])
	nSub := int(b[13])
	want := 14 + 8*nAnt + 16*nAnt*nSub
	if len(b) != want {
		return nil, fmt.Errorf("frame length %d, want %d: %w", len(b), want, ErrMalformed)
	}
	if nAnt == 0 || nSub == 0 {
		return nil, fmt.Errorf("empty frame dimensions: %w", ErrMalformed)
	}
	off := 14
	f.RSSI = make([]float64, nAnt)
	for i := range f.RSSI {
		f.RSSI[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	f.CSI = make([][]complex128, nAnt)
	for a := 0; a < nAnt; a++ {
		row := make([]complex128, nSub)
		for k := 0; k < nSub; k++ {
			re := math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
			im := math.Float64frombits(binary.BigEndian.Uint64(b[off+8:]))
			row[k] = complex(re, im)
			off += 16
		}
		f.CSI[a] = row
	}
	return f, nil
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("payload %d bytes: %w", len(payload), ErrTooLarge)
	}
	header := make([]byte, 0, 10)
	header = binary.BigEndian.AppendUint32(header, Magic)
	header = append(header, Version, msgType)
	header = binary.BigEndian.AppendUint32(header, uint32(len(payload)))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("write payload: %w", err)
		}
	}
	sum := make([]byte, 0, 4)
	sum = binary.BigEndian.AppendUint32(sum, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(sum); err != nil {
		return fmt.Errorf("write checksum: %w", err)
	}
	return nil
}

// MessageReader reads framed messages with reusable header/payload scratch,
// so a long-lived connection's receive loop stops allocating per message.
// The payload returned by Read aliases the reader's buffer and is valid
// only until the next Read. Not safe for concurrent use.
type MessageReader struct {
	hdr     [10]byte
	sum     [4]byte
	payload []byte
}

// Read reads and verifies one message, reusing internal buffers.
func (mr *MessageReader) Read(r io.Reader) (msgType byte, payload []byte, err error) {
	header := mr.hdr[:]
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, fmt.Errorf("read header: %w", err)
	}
	if binary.BigEndian.Uint32(header[0:4]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if header[4] != Version {
		return 0, nil, fmt.Errorf("version %d: %w", header[4], ErrBadVersion)
	}
	msgType = header[5]
	n := binary.BigEndian.Uint32(header[6:10])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("payload %d bytes: %w", n, ErrTooLarge)
	}
	if uint32(cap(mr.payload)) < n {
		mr.payload = make([]byte, n)
	}
	payload = mr.payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("read payload: %w", err)
	}
	if _, err := io.ReadFull(r, mr.sum[:]); err != nil {
		return 0, nil, fmt.Errorf("read checksum: %w", err)
	}
	if binary.BigEndian.Uint32(mr.sum[:]) != crc32.ChecksumIEEE(payload) {
		return 0, nil, ErrBadCRC
	}
	return msgType, payload, nil
}
