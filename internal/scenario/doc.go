// Package scenario reproduces the paper's measurement campaigns as seeded,
// deterministic simulation setups: the 6m×8m classroom of §III-A, the five
// TX–RX link cases of Fig. 6 (LinkCase), the 3×3 presence grids, the 500-location sampler, link-crossing
// trajectories, and the background dynamics (up to five students working
// ≥5 m away) of §V-A.
//
// A Scenario bundles a built propagation environment with the receiver's
// subcarrier grid and impairment model; NewExtractor derives reproducible
// CSI extractors from the scenario seed, and NewSession re-builds the setup
// with the small hardware/placement jitter of the paper's repeated
// campaigns (day/night, two weeks apart).
//
// Environment non-stationarity is first-class: DriftPreset/NewDriftStream
// wrap a scenario's capture stream with deterministic drift mechanisms — a
// linear receive-gain walk, temperature-like oscillator (CFO/STO) drift,
// and a furniture-move step change — the adversarial inputs the adaptation
// layer (internal/adapt) is tested against.
//
// Transport misbehaviour is first-class too: ChaosSource wraps any frame
// source with deterministic, counter-scheduled fault injection — stalls,
// slow drip, mid-stream EOF, transport failures with flapping reconnects,
// silent drop bursts, and torn messages — and counts ground truth in
// ChaosStats. It implements the full supervise source surface (Next,
// Recycle, Reconnect, Interrupt), so the supervision layer
// (internal/supervise) and its soak tests drive a misbehaving link through
// exactly the code paths a real collector outage would.
package scenario
