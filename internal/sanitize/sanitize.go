// Package sanitize implements CSI phase calibration in the style of the
// paper's reference [26] ("You Are Facing the Mona Lisa"): raw CSI phase is
// corrupted by a per-packet sampling-time offset (a linear phase slope
// across subcarriers) and a common oscillator phase offset. Both are
// removed by fitting a line to the unwrapped phase over subcarrier index
// and subtracting it.
//
// The same fitted line is subtracted from every antenna: the offsets are
// common-mode across RX chains (shared clock), so a common correction
// preserves the inter-antenna phase differences MUSIC needs.
//
// The detector does not sanitize: a phase common to all antennas cancels in
// every statistic it scores (internal/core's package doc says why). This
// package serves the figures that plot phases or angles themselves — the
// Fig. 5b pseudospectrum and the Fig. 10 angle errors — and the stage
// replay of the repository benchmark (perfbench).
package sanitize

import "mlink/internal/csi"

// Frames returns sanitized copies of frames: the linear phase trend (over
// the subcarrier indices idx) common to all antennas of a frame is removed
// from each. The input frames are unchanged; it fails on the first
// malformed frame. A caller sanitizing window after window holds a Scratch
// instead.
func Frames(frames []*csi.Frame, idx []int) ([]*csi.Frame, error) {
	return new(Scratch).Frames(frames, idx)
}
