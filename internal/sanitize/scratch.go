package sanitize

import (
	"fmt"

	"mlink/internal/csi"
	"mlink/internal/dsp"
)

// Scratch holds reusable buffers for repeated sanitization, so a caller
// sanitizing window after window (such as perfbench's stage replay) does
// not clone frames on every call. The returned frames are owned by the
// scratch and are only valid until its next Frames call. Not safe for
// concurrent use.
type Scratch struct {
	xs   []float64
	ph   []float64
	mean []float64
	rot  []complex128
	out  []*csi.Frame
}

// Frames sanitizes a batch like the package-level Frames, but into frame
// buffers owned by the scratch, failing on the first malformed frame.
func (sc *Scratch) Frames(frames []*csi.Frame, idx []int) ([]*csi.Frame, error) {
	if cap(sc.out) < len(frames) {
		next := make([]*csi.Frame, len(frames))
		copy(next, sc.out[:cap(sc.out)])
		sc.out = next
	}
	sc.out = sc.out[:len(frames)]
	for i, f := range frames {
		if err := sc.frame(&sc.out[i], f, idx); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return sc.out, nil
}

// frame sanitizes f into *dst, reusing its buffers when the shape matches.
func (sc *Scratch) frame(dst **csi.Frame, f *csi.Frame, idx []int) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("sanitize: %w", err)
	}
	nSub := f.NumSubcarriers()
	nAnt := f.NumAntennas()
	if len(idx) != nSub {
		return fmt.Errorf("sanitize: %d indices for %d subcarriers", len(idx), nSub)
	}
	sc.xs = growFloats(&sc.xs, nSub)
	for i, v := range idx {
		sc.xs[i] = float64(v)
	}

	// Average the unwrapped per-antenna phases to estimate the common trend.
	// The average carries the sampling-time slope, the common oscillator
	// phase and the mean inter-antenna offset; subtracting its fitted line
	// removes all three identically from every antenna, which stabilizes the
	// phase across packets while preserving inter-antenna differences.
	sc.mean = growFloats(&sc.mean, nSub)
	for k := range sc.mean {
		sc.mean[k] = 0
	}
	sc.ph = growFloats(&sc.ph, nSub)
	for ant := 0; ant < nAnt; ant++ {
		for k, v := range f.CSI[ant] {
			sc.ph[k] = phase(v)
		}
		dsp.UnwrapInPlace(sc.ph)
		for k, v := range sc.ph {
			sc.mean[k] += v / float64(nAnt)
		}
	}
	fit, err := dsp.FitLinear(sc.xs, sc.mean)
	if err != nil {
		return fmt.Errorf("sanitize fit: %w", err)
	}

	out := *dst
	if out == nil || len(out.CSI) != nAnt || len(out.CSI[0]) != nSub {
		out = &csi.Frame{CSI: make([][]complex128, nAnt)}
		for ant := range out.CSI {
			out.CSI[ant] = make([]complex128, nSub)
		}
		*dst = out
	}
	out.Seq = f.Seq
	out.TimestampMicros = f.TimestampMicros
	out.RSSI = append(out.RSSI[:0], f.RSSI...)
	// The correction rotor depends only on the subcarrier, not the antenna:
	// build the row once and apply it to every chain (Sincos is the hot op).
	if cap(sc.rot) < nSub {
		sc.rot = make([]complex128, nSub)
	}
	sc.rot = sc.rot[:nSub]
	for k := 0; k < nSub; k++ {
		sc.rot[k] = rotor(-(fit.Slope*sc.xs[k] + fit.Intercept))
	}
	for ant := 0; ant < nAnt; ant++ {
		for k, v := range f.CSI[ant] {
			out.CSI[ant][k] = v * sc.rot[k]
		}
	}
	return nil
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
