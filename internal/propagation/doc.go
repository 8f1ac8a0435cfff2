// Package propagation implements the ray-bouncing indoor propagation model
// the paper's analysis is built on (§II-A, §III-B): an image-method ray
// tracer over a 2-D room, free-space path loss per Eq. 9 with an
// environmental attenuation exponent, per-material specular reflection,
// human-induced shadowing (knife-edge, via internal/body) and human-created
// bistatic echo rays (Eq. 7).
//
// The tracer produces explicit ray sets — exactly the finite sums of
// Eq. 1/2 — which internal/channel samples into per-subcarrier channel
// frequency responses. The tests' oracle LOS/total power split
// (Environment.OracleLOS) grades the paper's Eq. 10 dominant-tap
// approximation.
package propagation
