package csi

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"mlink/internal/body"
	"mlink/internal/channel"
	"mlink/internal/propagation"
)

// ErrBadFrame reports a malformed CSI frame.
var ErrBadFrame = errors.New("csi: bad frame")

// Frame is one packet's worth of CSI, the unit every detector in this
// repository consumes.
type Frame struct {
	// Seq is the packet sequence number.
	Seq uint32
	// TimestampMicros is the capture time in microseconds since stream
	// start.
	TimestampMicros uint64
	// CSI is the complex channel estimate, indexed [antenna][subcarrier].
	CSI [][]complex128
	// RSSI is the per-antenna received signal strength in dB (10·log10 of
	// the summed subcarrier power).
	RSSI []float64
}

// NewFrame allocates a frame whose CSI rows are slices of one contiguous
// complex backing array — the layout the allocation-free capture pipeline
// and the frame pool rely on.
func NewFrame(nAnt, nSub int) *Frame {
	backing := make([]complex128, nAnt*nSub)
	rows := make([][]complex128, nAnt)
	for i := range rows {
		rows[i] = backing[i*nSub : (i+1)*nSub : (i+1)*nSub]
	}
	return &Frame{CSI: rows, RSSI: make([]float64, nAnt)}
}

// NumAntennas returns the receive-antenna count of the frame.
func (f *Frame) NumAntennas() int { return len(f.CSI) }

// NumSubcarriers returns the subcarrier count of the frame.
func (f *Frame) NumSubcarriers() int {
	if len(f.CSI) == 0 {
		return 0
	}
	return len(f.CSI[0])
}

// Validate checks the frame is rectangular and non-empty.
func (f *Frame) Validate() error {
	if len(f.CSI) == 0 {
		return fmt.Errorf("no antennas: %w", ErrBadFrame)
	}
	n := len(f.CSI[0])
	if n == 0 {
		return fmt.Errorf("no subcarriers: %w", ErrBadFrame)
	}
	for i, row := range f.CSI {
		if len(row) != n {
			return fmt.Errorf("antenna %d has %d subcarriers, want %d: %w", i, len(row), n, ErrBadFrame)
		}
	}
	if len(f.RSSI) != len(f.CSI) {
		return fmt.Errorf("rssi count %d != antenna count %d: %w", len(f.RSSI), len(f.CSI), ErrBadFrame)
	}
	return nil
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := &Frame{Seq: f.Seq, TimestampMicros: f.TimestampMicros}
	out.CSI = make([][]complex128, len(f.CSI))
	for i, row := range f.CSI {
		out.CSI[i] = append([]complex128(nil), row...)
	}
	out.RSSI = append([]float64(nil), f.RSSI...)
	return out
}

// Impairments configures the hardware error model.
type Impairments struct {
	// SNRdB is the per-subcarrier AWGN signal-to-noise ratio. Zero or
	// negative disables noise (treated as infinite SNR when NoiseEnabled is
	// false).
	SNRdB float64
	// NoiseEnabled gates AWGN injection.
	NoiseEnabled bool
	// MaxSTOSeconds bounds the per-packet sampling-time offset, drawn
	// uniformly in ±MaxSTOSeconds (≈50 ns on real 802.11 hardware).
	MaxSTOSeconds float64
	// AGCJitterDB is the standard deviation of the per-packet common
	// amplitude jitter in dB (white component).
	AGCJitterDB float64
	// AGCDriftDB is the stationary standard deviation (dB) of a slowly
	// varying gain drift, modelled as an Ornstein–Uhlenbeck process with
	// time constant AGCDriftTauPackets packets. Real receive chains drift
	// with temperature and gain-control state; unlike white jitter this
	// does not average out within a monitoring window — it is the
	// "fickleness" of amplitude features the paper's related work cites.
	AGCDriftDB float64
	// AGCDriftTauPackets is the drift correlation length (default 250
	// packets = 5 s at the paper's 50 pkt/s).
	AGCDriftTauPackets float64
	// RandomCommonPhase enables the per-packet uniform [0,2π) oscillator
	// phase offset shared by all antennas.
	RandomCommonPhase bool
	// QuantizationBits, when in [2,16], quantizes real/imag parts to signed
	// integers of that many bits (8 on the Intel 5300). 0 disables.
	QuantizationBits int
}

// DefaultImpairments models a healthy Intel 5300 capture chain.
func DefaultImpairments() Impairments {
	return Impairments{
		SNRdB:              26,
		NoiseEnabled:       true,
		MaxSTOSeconds:      50e-9,
		AGCJitterDB:        0.3,
		AGCDriftDB:         1.2,
		AGCDriftTauPackets: 250,
		RandomCommonPhase:  true,
		QuantizationBits:   8,
	}
}

// Extractor captures CSI frames from a simulated environment, applying the
// impairment model. It is the software stand-in for the CSI Tool's netlink
// export.
type Extractor struct {
	Env        *propagation.Environment
	Grid       *channel.Grid
	Imp        Impairments
	PacketRate float64 // packets per second, for timestamps

	rng      *rand.Rand
	seq      uint32
	agcDrift float64   // current OU drift state in dB
	freqs    []float64 // cached grid frequencies
	resp     propagation.ResponseScratch
}

// NewExtractor builds an extractor; rng drives every stochastic impairment
// and must not be nil when any impairment is enabled. The environment's
// synthesis cache is prepared for the grid here, so every capture rides the
// cached fast path.
func NewExtractor(env *propagation.Environment, grid *channel.Grid, imp Impairments, packetRate float64, rng *rand.Rand) (*Extractor, error) {
	if env == nil {
		return nil, errors.New("csi: nil environment")
	}
	if grid == nil || grid.Len() == 0 {
		return nil, fmt.Errorf("csi: empty grid: %w", channel.ErrBadGrid)
	}
	if packetRate <= 0 {
		packetRate = 50 // the paper pings at 50 packets/s
	}
	if rng == nil && (imp.NoiseEnabled || imp.MaxSTOSeconds > 0 || imp.AGCJitterDB > 0 ||
		imp.AGCDriftDB > 0 || imp.RandomCommonPhase) {
		return nil, errors.New("csi: nil rng with stochastic impairments enabled")
	}
	x := &Extractor{Env: env, Grid: grid, Imp: imp, PacketRate: packetRate, rng: rng,
		freqs: grid.Frequencies()}
	if err := env.PrepareGrid(x.freqs); err != nil {
		return nil, fmt.Errorf("csi: prepare grid: %w", err)
	}
	if imp.AGCDriftDB > 0 {
		// Start the drift in its stationary distribution so the first
		// window is as realistic as the thousandth.
		x.agcDrift = rng.NormFloat64() * imp.AGCDriftDB
	}
	return x, nil
}

// drawImpairments draws the per-packet common impairments (shared across
// antennas) in a fixed order, so the cached and naive capture paths consume
// identical random variates.
func (x *Extractor) drawImpairments() (commonPhase, sto, agc float64) {
	if x.Imp.RandomCommonPhase {
		commonPhase = x.rng.Float64() * 2 * math.Pi
	}
	if x.Imp.MaxSTOSeconds > 0 {
		sto = (x.rng.Float64()*2 - 1) * x.Imp.MaxSTOSeconds
	}
	agcDB := 0.0
	if x.Imp.AGCJitterDB > 0 {
		agcDB += x.rng.NormFloat64() * x.Imp.AGCJitterDB
	}
	if x.Imp.AGCDriftDB > 0 {
		tau := x.Imp.AGCDriftTauPackets
		if tau <= 0 {
			tau = 250
		}
		rho := math.Exp(-1 / tau)
		x.agcDrift = rho*x.agcDrift + math.Sqrt(1-rho*rho)*x.rng.NormFloat64()*x.Imp.AGCDriftDB
		agcDB += x.agcDrift
	}
	return commonPhase, sto, math.Pow(10, agcDB/20)
}

// stamp assigns the frame's sequence number and timestamp.
func (x *Extractor) stamp(f *Frame) {
	f.Seq = x.seq
	f.TimestampMicros = uint64(float64(x.seq) / x.PacketRate * 1e6)
	x.seq++
}

// Capture simulates receiving one packet with the given bodies in the room
// and returns its CSI frame. It rides the cached synthesis path; see
// CaptureInto for the allocation-free variant and CaptureNaive for the
// uncached reference.
func (x *Extractor) Capture(bodies []body.Body) *Frame {
	f := NewFrame(len(x.Env.RX.Elements), x.Grid.Len())
	if err := x.CaptureInto(f, bodies); err != nil {
		// The frame shape and grid are constructed here; failure means a
		// broken invariant, not bad input.
		panic(fmt.Sprintf("csi: capture: %v", err))
	}
	return f
}

// CaptureInto simulates receiving one packet into a caller-provided frame
// (shaped as by NewFrame) without allocating: channel synthesis writes
// directly into the frame's CSI rows via the environment's phasor cache, and
// the impairments — STO/phase rotation, AWGN, quantization — are applied in
// place on the frame's backing array.
func (x *Extractor) CaptureInto(f *Frame, bodies []body.Body) error {
	nAnt := len(x.Env.RX.Elements)
	nSub := x.Grid.Len()
	if len(f.CSI) != nAnt || len(f.RSSI) != nAnt {
		return fmt.Errorf("frame for %d antennas, link has %d: %w", len(f.CSI), nAnt, ErrBadFrame)
	}
	for _, row := range f.CSI {
		if len(row) != nSub {
			return fmt.Errorf("frame row of %d subcarriers, grid has %d: %w", len(row), nSub, ErrBadFrame)
		}
	}
	if !x.Env.PreparedFor(x.freqs) {
		// Another extractor sharing this environment re-prepared its cache
		// for a different grid; rebuild for ours rather than silently
		// synthesizing at the wrong frequencies. (In the common case this
		// check is a 30-float compare and the rebuild never triggers.)
		if err := x.Env.PrepareGrid(x.freqs); err != nil {
			return fmt.Errorf("re-prepare grid: %w", err)
		}
	}
	if err := x.Env.ResponseInto(f.CSI, bodies, &x.resp); err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	commonPhase, sto, agc := x.drawImpairments()
	x.stamp(f)
	for ant := 0; ant < nAnt; ant++ {
		row := f.CSI[ant]
		for k := range row {
			// STO phase slope across subcarriers (relative to centre to keep
			// the slope numerically clean) plus the common oscillator phase.
			phi := commonPhase - 2*math.Pi*(x.freqs[k]-x.Grid.Center)*sto
			sin, cos := math.Sincos(phi)
			row[k] *= complex(agc*cos, agc*sin)
		}
		if x.Imp.NoiseEnabled {
			channel.AddAWGNInPlace(row, x.Imp.SNRdB, x.rng)
		}
		if b := x.Imp.QuantizationBits; b >= 2 && b <= 16 {
			quantizeInPlace(row, b)
		}
		f.RSSI[ant] = rssiOf(row)
	}
	return nil
}

// CaptureNaive is the uncached reference capture path: it synthesizes the
// channel with the naive per-ray Response and allocates fresh CSI rows, as
// Capture did before the phasor cache existed. It is kept runnable for the
// cached-vs-naive benchmarks and consistency tests; production callers use
// Capture/CaptureInto.
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
			out = channel.AddAWGN(out, x.Imp.SNRdB, x.rng)
		}
		if b := x.Imp.QuantizationBits; b >= 2 && b <= 16 {
			out = quantize(out, b)
		}
		frame.CSI[ant] = out
		frame.RSSI[ant] = rssiOf(out)
	}
	return frame
}

// rssiOf returns the summed subcarrier power of one antenna row in dB.
func rssiOf(row []complex128) float64 {
	var p float64
	for _, v := range row {
		re, im := real(v), imag(v)
		p += re*re + im*im
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}

// CaptureN captures n consecutive frames with a fixed body configuration.
func (x *Extractor) CaptureN(n int, bodies []body.Body) []*Frame {
	out := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, x.Capture(bodies))
	}
	return out
}

// quantize rounds real/imag parts to signed b-bit integers, returning a new
// slice (the naive capture path).
func quantize(h []complex128, bits int) []complex128 {
	out := append([]complex128(nil), h...)
	quantizeInPlace(out, bits)
	return out
}

// quantizeInPlace rounds real/imag parts to signed b-bit integers with a
// per-antenna scale chosen so the largest component uses the full range,
// then scales back — exactly what the 5300 firmware does with 8 bits. It
// mutates h directly, the allocation-free capture hot path.
func quantizeInPlace(h []complex128, bits int) {
	maxLevel := float64(int(1)<<(bits-1)) - 1 // e.g. 127 for 8 bits
	var peak float64
	for _, v := range h {
		if a := math.Abs(real(v)); a > peak {
			peak = a
		}
		if a := math.Abs(imag(v)); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return
	}
	scale := maxLevel / peak
	for i, v := range h {
		re := math.Round(real(v)*scale) / scale
		im := math.Round(imag(v)*scale) / scale
		h[i] = complex(re, im)
	}
}
