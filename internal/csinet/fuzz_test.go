package csinet

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"mlink/internal/csi"
	"mlink/internal/scenario"
)

// fuzzFrameSeeds encodes real captured frames — a 3-antenna classroom
// capture and a 1-antenna one — so the fuzzer starts from payloads the
// ingest path actually sees.
func fuzzFrameSeeds(f *testing.F) [][]byte {
	f.Helper()
	s, err := scenario.Classroom(17)
	if err != nil {
		f.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for i, fr := range x.CaptureN(2, nil) {
		if i == 1 {
			fr.CSI, fr.RSSI = fr.CSI[:1], fr.RSSI[:1]
		}
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// heapBytes reports how many heap bytes fn allocates per call, averaged
// over runs calls.
func heapBytes(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// FuzzDecodeFrame throws truncated, bit-flipped and length-inflated
// variants of real frame payloads at DecodeFrameInto, the decoder that
// reads CSI straight off the network. It may only return the wire
// package's typed errors; a rejected payload must leave the destination
// frame untouched (so nothing was allocated or written on the strength of
// its header); an accepted one must re-encode to the same bytes. A header
// claiming a 255×255 frame over a short body must be rejected without
// allocating anything near the ~1 MiB it claims.
func FuzzDecodeFrame(f *testing.F) {
	seeds := fuzzFrameSeeds(f)
	for _, b := range seeds {
		f.Add(b)
		f.Add(b[:len(b)/2])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	inflated := append([]byte(nil), seeds[0][:64]...)
	inflated[12], inflated[13] = 0xFF, 0xFF
	f.Add(inflated)
	f.Add([]byte{})

	// A shaped destination reused across decodes: the pooled ingest path.
	pooled := csi.NewFrame(3, 30)
	if err := DecodeFrameInto(pooled, seeds[0]); err != nil {
		f.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = DecodeFrameInto(pooled, seeds[0]) }); n != 0 {
		f.Fatalf("decoding into a shaped frame allocates %v times", n)
	}
	if n := heapBytes(100, func() { _ = DecodeFrameInto(pooled, inflated) }); n > 1024 {
		f.Fatalf("hostile 255x255 header allocates %d bytes per decode", n)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := csi.NewFrame(3, 30)
		dst.Seq, dst.TimestampMicros = 7, 11
		rssi, row0 := &dst.RSSI[0], &dst.CSI[0][0]
		err := DecodeFrameInto(dst, data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrBadCRC) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if dst.Seq != 7 || dst.TimestampMicros != 11 || len(dst.RSSI) != 3 || len(dst.CSI) != 3 ||
				&dst.RSSI[0] != rssi || &dst.CSI[0][0] != row0 {
				t.Fatal("rejected payload modified the destination frame")
			}
			return
		}
		if got := 14 + 8*dst.NumAntennas() + 16*dst.NumAntennas()*dst.NumSubcarriers(); got != len(data) {
			t.Fatalf("accepted %d bytes as a frame of %d", len(data), got)
		}
		out, err := EncodeFrame(dst)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted frame re-encodes to different bytes")
		}
	})
}

// FuzzDecodeHello throws mutated Hello payloads at DecodeHello, the first
// thing a client reads off the network. Seeds: a valid Hello, a truncated
// one, and one whose subcarrier count disagrees with its length. It may
// only return ErrMalformed and never panic; an accepted payload must
// re-encode to the same bytes.
func FuzzDecodeHello(f *testing.F) {
	indices := make([]int16, 30)
	for i := range indices {
		indices[i] = int16(2*i - 29)
	}
	valid, err := EncodeHello(Hello{CenterFreqHz: 2.462e9, NumAntennas: 3, NumSubcarriers: 30, Indices: indices})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:9])
	mismatch := append([]byte(nil), valid...)
	mismatch[9] = 31
	f.Add(mismatch)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		out, err := EncodeHello(h)
		if err != nil {
			t.Fatalf("accepted hello does not re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted hello re-encodes to different bytes")
		}
	})
}
