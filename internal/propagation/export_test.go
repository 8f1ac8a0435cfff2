package propagation

import "mlink/internal/body"

// OracleLOS returns the true LOS-path power and total power at one element
// and frequency — ground truth unavailable on real hardware, used by the
// ablation bench to grade the Eq. 10 dominant-tap approximation.
func (e *Environment) OracleLOS(f float64, rxIdx int, bodies []body.Body) (losPower, totalPower float64) {
	var losC, total complex128
	for _, r := range e.staticRays[rxIdx] {
		c := e.rayContribution(r, f, bodies, -1)
		total += c
		if r.Kind == KindLOS {
			losC += c
		}
	}
	for bi, b := range bodies {
		if b.RCS <= 0 {
			continue
		}
		total += e.rayContribution(e.echoRay(b, rxIdx), f, bodies, bi)
	}
	re, im := real(losC), imag(losC)
	losPower = re*re + im*im
	re, im = real(total), imag(total)
	totalPower = re*re + im*im
	return losPower, totalPower
}
