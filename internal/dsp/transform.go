package dsp

import "math"

// Transform is a planned inverse DFT of one fixed size. Sizes that are a
// product of distinct primes from {2, 3, 5} — the CSI pipeline's
// 30-subcarrier vectors (30 = 2·3·5) included — run as a Good–Thomas
// prime-factor transform: no twiddle multiplies at all, just straight-line
// 2/3/5-point butterflies over a CRT-permuted copy, O(n·Σfactors) instead of
// the O(n²) of the package-level IDFTInto. Every other size falls back to
// that cached-twiddle matrix path, so a Transform is never wrong, only
// sometimes not faster.
//
// A Transform is allocation-free per call and safe for concurrent use: after
// NewTransform the plan is immutable (its index map and butterfly roots are
// only read), and every per-call intermediate lives on the stack or in the
// caller's dst. Prefer Plan over NewTransform so all workers share one
// cached plan per size.
type Transform struct {
	n   int
	pfa *pfaPlan // prime-factor plan; nil → matrix path
}

// pfaMaxN is the largest prime-factor size, 2·3·5: the size of the stack
// buffer a prime-factor transform runs in.
const pfaMaxN = 30

// pfaPlan is a Good–Thomas plan for n = r₁·r₂·… with distinct prime r_d.
// Sample index s and its residues i_d = s mod r_d are interchangeable
// (Chinese remainder theorem); laying the residues out as a mixed-radix
// number j = Σ i_d·stride_d turns the length-n DFT into an r₁×r₂×…
// multidimensional one with no twiddle factors between the dimensions. With
// the CRT map s = Σ i_d·e_d mod n (e_d ≡ 1 mod r_d, ≡ 0 mod the others) on
// both sides, s·k ≡ Σ i_d·k_d·e_d (mod n), so dimension d is an r_d-point
// DFT with the rotated root W_{r_d}^{t_d}, t_d = (n/r_d)⁻¹ mod r_d, and the
// one permutation serves input and output.
type pfaPlan struct {
	perm []int // slot j holds sample perm[j], on input and output alike
	dims []pfaDim
}

// pfaDim is one dimension of the prime-factor plan: an r-point butterfly
// applied along the given stride, with its rotated root per direction.
type pfaDim struct {
	r, stride int
	fwd, inv  rotation
}

// rotation holds cos/sin of a butterfly root angle θ and of 2θ.
type rotation struct{ c1, s1, c2, s2 float64 }

func newRotation(theta float64) rotation {
	s1, c1 := math.Sincos(theta)
	s2, c2 := math.Sincos(2 * theta)
	return rotation{c1: c1, s1: s1, c2: c2, s2: s2}
}

// newPFAPlan plans n as a prime-factor transform, or returns nil when n is
// not a product of distinct primes from {2, 3, 5}.
func newPFAPlan(n int) *pfaPlan {
	if n < 2 {
		return nil
	}
	var factors []int
	rem := n
	for _, r := range [...]int{2, 3, 5} {
		if rem%r == 0 {
			factors = append(factors, r)
			rem /= r
		}
	}
	if rem != 1 {
		return nil
	}
	p := &pfaPlan{perm: make([]int, n), dims: make([]pfaDim, len(factors))}
	stride := n
	for d, r := range factors {
		stride /= r
		q := n / r
		t := 1
		for (q*t)%r != 1 {
			t++
		}
		theta := 2 * math.Pi * float64(t) / float64(r)
		p.dims[d] = pfaDim{r: r, stride: stride, fwd: newRotation(-theta), inv: newRotation(theta)}
	}
	// Slot j = Σ i_d·stride_d holds the sample whose residues are i_d, i.e.
	// the unique s in [0, n) with s mod r_d = i_d for every d.
	for s := 0; s < n; s++ {
		j := 0
		for _, d := range p.dims {
			j += (s % d.r) * d.stride
		}
		p.perm[j] = s
	}
	return p
}

// NewTransform plans transforms of the given size: the prime-factor plan
// where it applies, else the matrix path. Any n ≥ 0 is accepted.
func NewTransform(n int) *Transform {
	return &Transform{n: n, pfa: newPFAPlan(n)}
}

// Len reports the planned transform size.
func (p *Transform) Len() int { return p.n }

// IDFTInto computes the inverse transform (with 1/n scaling) of x into dst,
// identical in result to the package-level IDFTInto up to floating-point
// summation order. Mismatched lengths take the matrix path.
func (p *Transform) IDFTInto(dst, x []complex128) {
	if p.pfa == nil || len(x) != p.n || len(dst) != p.n {
		IDFTInto(dst, x)
		return
	}
	p.pfa.run(dst, x, true)
}

// run computes the prime-factor transform of x into dst: gather through the
// CRT map, butterfly along every dimension in place, scatter back through
// the same map (scaled by 1/n for the inverse).
func (p *pfaPlan) run(dst, x []complex128, inverse bool) {
	var buf [pfaMaxN]complex128
	t := buf[:len(p.perm)]
	for j, s := range p.perm {
		t[j] = x[s]
	}
	for i := range p.dims {
		d := &p.dims[i]
		rot := &d.fwd
		if inverse {
			rot = &d.inv
		}
		switch d.r {
		case 2:
			butterflies2(t, d.stride)
		case 3:
			butterflies3(t, d.stride, rot)
		default:
			butterflies5(t, d.stride, rot)
		}
	}
	if !inverse {
		for j, s := range p.perm {
			dst[s] = t[j]
		}
		return
	}
	scale := 1 / float64(len(p.perm))
	for j, s := range p.perm {
		dst[s] = complex(real(t[j])*scale, imag(t[j])*scale)
	}
}

// butterflies2 runs every 2-point DFT along stride s of t.
func butterflies2(t []complex128, s int) {
	for base := 0; base < len(t); base += 2 * s {
		for j := base; j < base+s; j++ {
			a, b := t[j], t[j+s]
			t[j], t[j+s] = a+b, a-b
		}
	}
}

// butterflies3 runs every 3-point DFT along stride s of t with root e^{iθ}:
// since θ is a multiple of 2π/3, x₁w + x₂w² = cos θ·(x₁+x₂) + i·sin θ·(x₁−x₂).
func butterflies3(t []complex128, s int, rot *rotation) {
	c, sn := rot.c1, rot.s1
	for base := 0; base < len(t); base += 3 * s {
		for j := base; j < base+s; j++ {
			a, b, e := t[j], t[j+s], t[j+2*s]
			sum, dif := b+e, b-e
			m := complex(real(a)+c*real(sum), imag(a)+c*imag(sum))
			rx, ry := -sn*imag(dif), sn*real(dif)
			t[j] = a + sum
			t[j+s] = complex(real(m)+rx, imag(m)+ry)
			t[j+2*s] = complex(real(m)-rx, imag(m)-ry)
		}
	}
}

// butterflies5 runs every 5-point DFT along stride s of t with root e^{iθ},
// pairing x₁/x₄ and x₂/x₃ so that each output is a cosine sum plus or minus
// i times a sine sum.
func butterflies5(t []complex128, s int, rot *rotation) {
	c1, s1, c2, s2 := rot.c1, rot.s1, rot.c2, rot.s2
	for base := 0; base < len(t); base += 5 * s {
		for j := base; j < base+s; j++ {
			x0 := t[j]
			p1, m1 := t[j+s]+t[j+4*s], t[j+s]-t[j+4*s]
			p2, m2 := t[j+2*s]+t[j+3*s], t[j+2*s]-t[j+3*s]
			// Cosine sums (real coefficients on p) and sine sums (times i,
			// on m) of outputs 1/4 and 2/3.
			a1 := complex(real(x0)+c1*real(p1)+c2*real(p2), imag(x0)+c1*imag(p1)+c2*imag(p2))
			a2 := complex(real(x0)+c2*real(p1)+c1*real(p2), imag(x0)+c2*imag(p1)+c1*imag(p2))
			b1r, b1i := s1*real(m1)+s2*real(m2), s1*imag(m1)+s2*imag(m2)
			b2r, b2i := s2*real(m1)-s1*real(m2), s2*imag(m1)-s1*imag(m2)
			t[j] = x0 + p1 + p2
			t[j+s] = complex(real(a1)-b1i, imag(a1)+b1r)
			t[j+4*s] = complex(real(a1)+b1i, imag(a1)-b1r)
			t[j+2*s] = complex(real(a2)-b2i, imag(a2)+b2r)
			t[j+3*s] = complex(real(a2)+b2i, imag(a2)-b2r)
		}
	}
}
