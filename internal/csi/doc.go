// Package csi emulates the Channel State Information export path of the
// paper's receiver: an Intel 5300 NIC with the Linux CSI Tool [16]. Each
// captured packet yields an NRX×30 complex CSI matrix plus per-antenna RSSI.
//
// The emulation layers the hardware impairments real CSI exhibits on top of
// the noiseless channel response from internal/propagation:
//
//   - a per-packet common phase offset (residual CFO — identical on all RX
//     chains because they share one oscillator, which is what makes
//     cross-antenna phase usable for AoA),
//   - a per-packet sampling-time offset, i.e. a linear phase slope across
//     subcarriers (what phase sanitization removes),
//   - automatic gain control jitter (a common amplitude scale per packet),
//   - additive white Gaussian noise per subcarrier and antenna,
//   - int8 quantization of the real/imaginary parts, as the 5300 reports.
//
// Capture rides the environment's phasor-cached synthesis path and
// CaptureInto is its allocation-free form: frames built by NewFrame hold one
// contiguous complex backing array, impairments are applied in place on it,
// and a FramePool recycles frames across packets. The original per-ray,
// per-allocation path (CaptureNaive) lives in the package's tests, as the
// reference the cached path is benchmarked and property-tested against.
package csi
