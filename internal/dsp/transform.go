package dsp

import "math"

// Transform is a planned DFT/IDFT of one fixed size. Sizes that are a
// product of distinct primes from {2, 3, 5} — the CSI pipeline's
// 30-subcarrier vectors (30 = 2·3·5) included — run as a Good–Thomas
// prime-factor transform: no twiddle multiplies at all, just straight-line
// 2/3/5-point butterflies over a CRT-permuted copy. Other sizes whose prime
// factors are all in {2, 3, 5} run as a recursive mixed-radix Cooley–Tukey
// FFT. Both are O(n·Σfactors) instead of the O(n²) of the package-level
// DFTInto; any other size falls back to that cached-twiddle matrix path, so
// a Transform is never wrong, only sometimes not faster.
//
// A Transform is allocation-free per call and safe for concurrent use: after
// NewTransform the plan is immutable (factors, index map and twiddle tables
// are only read), and every per-call intermediate lives on the stack or in
// the caller's dst. Prefer Plan over NewTransform so all workers share one
// cached plan per size.
type Transform struct {
	n       int
	pfa     *pfaPlan // prime-factor plan; nil → mixed-radix or matrix path
	radices []int    // mixed-radix plan, outermost first; nil → matrix fallback
	fwd     dirTables
	inv     dirTables
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

// dirTables holds one direction's twiddles: the size-N table plus the small
// fixed butterfly matrices W_r^{jq} (which are level-independent, so each
// radix needs exactly one).
type dirTables struct {
	w  []complex128
	b3 [2]complex128    // W_3^1, W_3^2
	b5 [5][5]complex128 // W_5^{jq}
}

func (d *dirTables) fill(n int, w []complex128) {
	d.w = w
	if n%3 == 0 {
		d.b3[0] = w[n/3]
		d.b3[1] = w[2*n/3]
	}
	if n%5 == 0 {
		for q := 0; q < 5; q++ {
			for j := 0; j < 5; j++ {
				d.b5[q][j] = w[(n/5*j*q)%n]
			}
		}
	}
}

// NewTransform plans transforms of the given size: the prime-factor plan
// where it applies, else NewMixedRadixTransform. Any n ≥ 0 is accepted.
func NewTransform(n int) *Transform {
	if pfa := newPFAPlan(n); pfa != nil {
		return &Transform{n: n, pfa: pfa}
	}
	return NewMixedRadixTransform(n)
}

// NewMixedRadixTransform plans n as the recursive mixed-radix FFT whenever
// its prime factors are all in {2, 3, 5} — prime-factor sizes included, so
// it is also the reference the prime-factor plan is checked and benchmarked
// against — and as the matrix fallback otherwise.
func NewMixedRadixTransform(n int) *Transform {
	p := &Transform{n: n}
	if n < 2 {
		return p
	}
	rem := n
	var radices []int
	for _, r := range [...]int{2, 3, 5} {
		for rem%r == 0 {
			radices = append(radices, r)
			rem /= r
		}
	}
	if rem == 1 {
		p.radices = radices
		ts := twiddles(n)
		p.fwd.fill(n, ts.fwd)
		p.inv.fill(n, ts.inv)
	}
	return p
}

// Len reports the planned transform size.
func (p *Transform) Len() int { return p.n }

// DFTInto computes the forward transform of x into dst (both length n, no
// aliasing), identical in result to the package-level DFTInto up to
// floating-point summation order. Mismatched lengths take the generic path.
func (p *Transform) DFTInto(dst, x []complex128) {
	switch {
	case len(x) != p.n || len(dst) != p.n:
		DFTInto(dst, x)
	case p.pfa != nil:
		p.pfa.run(dst, x, false)
	case p.radices != nil:
		p.rec(&p.fwd, dst, x, 0, 1, p.n, 1, 0)
	default:
		DFTInto(dst, x)
	}
}

// IDFTInto computes the inverse transform (with 1/n scaling) of x into dst,
// identical in result to the package-level IDFTInto up to floating-point
// summation order. Mismatched lengths take the generic path.
func (p *Transform) IDFTInto(dst, x []complex128) {
	switch {
	case len(x) != p.n || len(dst) != p.n:
		IDFTInto(dst, x)
	case p.pfa != nil:
		p.pfa.run(dst, x, true)
	case p.radices != nil:
		p.rec(&p.inv, dst, x, 0, 1, p.n, 1, 0)
		scale := complex(1/float64(p.n), 0)
		for i := range dst {
			dst[i] *= scale
		}
	default:
		IDFTInto(dst, x)
	}
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

// rec runs one decimation-in-time level: the logical input is the length-n
// sequence src[off], src[off+stride], …; unit is the twiddle step of this
// level in the size-N table (N/n). dst is the contiguous output segment.
func (p *Transform) rec(d *dirTables, dst, src []complex128, off, stride, n, unit, level int) {
	r := p.radices[level]
	m := n / r
	if m == 1 {
		// Leaf: direct size-r DFT of the strided inputs via the fixed
		// butterfly matrices — no index arithmetic in the inner loop.
		switch r {
		case 2:
			a, b := src[off], src[off+stride]
			dst[0] = a + b
			dst[1] = a - b
		case 3:
			a, b, c := src[off], src[off+stride], src[off+2*stride]
			w1, w2 := d.b3[0], d.b3[1]
			dst[0] = a + b + c
			dst[1] = a + b*w1 + c*w2
			dst[2] = a + b*w2 + c*w1
		default:
			var t [5]complex128
			for j := 0; j < 5; j++ {
				t[j] = src[off+j*stride]
			}
			for q := 0; q < 5; q++ {
				bw := &d.b5[q]
				dst[q] = t[0] + t[1]*bw[1] + t[2]*bw[2] + t[3]*bw[3] + t[4]*bw[4]
			}
		}
		return
	}
	for j := 0; j < r; j++ {
		p.rec(d, dst[j*m:(j+1)*m], src, off+j*stride, stride*r, m, unit*r, level+1)
	}
	// Combine the r sub-transforms in place: for each output row kk, twiddle
	// the r sub-values then butterfly across them. The butterfly reads and
	// writes the same r slots {j·m+kk}, so no scratch is needed.
	N := p.n
	w := d.w
	switch r {
	case 2:
		idx := 0
		for kk := 0; kk < m; kk++ {
			t0 := dst[kk]
			t1 := dst[m+kk] * w[idx]
			dst[kk] = t0 + t1
			dst[m+kk] = t0 - t1
			if idx += unit; idx >= N {
				idx -= N
			}
		}
	case 3:
		w1, w2 := d.b3[0], d.b3[1]
		idx1, idx2 := 0, 0
		for kk := 0; kk < m; kk++ {
			t0 := dst[kk]
			t1 := dst[m+kk] * w[idx1]
			t2 := dst[2*m+kk] * w[idx2]
			dst[kk] = t0 + t1 + t2
			dst[m+kk] = t0 + t1*w1 + t2*w2
			dst[2*m+kk] = t0 + t1*w2 + t2*w1
			if idx1 += unit; idx1 >= N {
				idx1 -= N
			}
			if idx2 += 2 * unit; idx2 >= N {
				idx2 -= N
			}
		}
	default:
		var idx [5]int
		for kk := 0; kk < m; kk++ {
			t0 := dst[kk]
			t1 := dst[m+kk] * w[idx[1]]
			t2 := dst[2*m+kk] * w[idx[2]]
			t3 := dst[3*m+kk] * w[idx[3]]
			t4 := dst[4*m+kk] * w[idx[4]]
			for q := 0; q < 5; q++ {
				bw := &d.b5[q]
				dst[q*m+kk] = t0 + t1*bw[1] + t2*bw[2] + t3*bw[3] + t4*bw[4]
			}
			for j := 1; j < 5; j++ {
				if idx[j] += j * unit; idx[j] >= N {
					idx[j] -= N
				}
			}
		}
	}
}
