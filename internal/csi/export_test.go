package csi

import (
	"math"
	"math/cmplx"

	"mlink/internal/body"
	"mlink/internal/channel"
)

// CaptureNaive is the uncached reference capture path: it synthesizes the
// channel with the naive per-ray Response and allocates fresh CSI rows, as
// Capture did before the phasor cache existed. It lives in a test file, as
// the reference the cached path is benchmarked and property-tested against;
// production callers use Capture/CaptureInto.
func (x *Extractor) CaptureNaive(bodies []body.Body) *Frame {
	h := x.Env.Response(x.freqs, bodies)
	commonPhase, sto, agc := x.drawImpairments()

	frame := &Frame{
		CSI:  make([][]complex128, len(h)),
		RSSI: make([]float64, len(h)),
	}
	x.stamp(frame)

	for ant, row := range h {
		out := make([]complex128, len(row))
		for k, v := range row {
			phi := commonPhase - 2*math.Pi*(x.freqs[k]-x.Grid.Center)*sto
			out[k] = v * complex(agc, 0) * cmplx.Exp(complex(0, phi))
		}
		if x.Imp.NoiseEnabled {
			channel.AddAWGNInPlace(out, x.Imp.SNRdB, x.rng)
		}
		if b := x.Imp.QuantizationBits; b >= 2 && b <= 16 {
			out = quantize(out, b)
		}
		frame.CSI[ant] = out
		frame.RSSI[ant] = rssiOf(out)
	}
	return frame
}

// quantize rounds real/imag parts to signed b-bit integers, returning a new
// slice (the naive capture path).
func quantize(h []complex128, bits int) []complex128 {
	out := append([]complex128(nil), h...)
	quantizeInPlace(out, bits)
	return out
}
