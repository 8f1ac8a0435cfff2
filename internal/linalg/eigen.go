package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotHermitian is returned by EigWorkspace.EigHermitian when the input is not
// Hermitian within the solver's tolerance.
var ErrNotHermitian = errors.New("linalg: matrix is not Hermitian")

// ErrNoConvergence is returned when the Jacobi sweep limit is exhausted
// before the off-diagonal mass vanishes.
var ErrNoConvergence = errors.New("linalg: eigensolver did not converge")

// Eigen holds the result of a Hermitian eigendecomposition. Values are real
// (Hermitian matrices have real spectra) and sorted in descending order;
// Vectors.Col(i) is the unit eigenvector for Values[i].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

const (
	hermitianTol = 1e-9
	maxSweeps    = 64
)

// EigWorkspace owns the Jacobi eigensolver's working storage — the matrix
// copy driven to diagonal form, the accumulated rotations, the sort
// scratch and the result itself — so a long-lived caller (a scoring worker,
// a recalibration loop) decomposes covariance matrices without allocating
// once the buffers have grown to the problem size. The zero value is ready
// to use. A workspace must not be shared between goroutines, and the Eigen
// returned by its EigHermitian is overwritten by the next call.
type EigWorkspace struct {
	w, v Matrix // working copy and accumulated rotations
	vals []float64
	idx  []int
	out  Eigen
}

// EigHermitian computes the full eigendecomposition of a Hermitian matrix by
// the cyclic complex Jacobi method. It is O(n³) per sweep and intended for
// the small matrices (antenna covariance, a handful of elements) used in
// this repository. The working matrices, sort scratch and result all live
// in (and are reused from) the workspace; a one-off solve uses a fresh
// workspace.
func (ws *EigWorkspace) EigHermitian(a *Matrix) (*Eigen, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("eig of %dx%d: %w", a.Rows(), a.Cols(), ErrDimensionMismatch)
	}
	scale := a.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	if !a.IsHermitian(hermitianTol * scale) {
		return nil, ErrNotHermitian
	}
	n := a.Rows()
	w, v := &ws.w, &ws.v
	w.Reuse(n, n)
	if err := w.CopyFrom(a); err != nil {
		return nil, err
	}
	v.Reuse(n, n)
	v.SetIdentity()

	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*scale {
			return ws.collect(), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}
	if offDiagNorm(w) <= 1e-10*scale {
		return ws.collect(), nil
	}
	return nil, ErrNoConvergence
}

// offDiagNorm returns the Frobenius norm of the strictly off-diagonal part.
func offDiagNorm(m *Matrix) float64 {
	var sum float64
	n := m.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			x := m.At(i, j)
			re, im := real(x), imag(x)
			sum += re*re + im*im
		}
	}
	return math.Sqrt(sum)
}

// jacobiRotate zeroes w[p][q] (and by Hermitian symmetry w[q][p]) with a
// complex Givens rotation, accumulating the rotation into v.
func jacobiRotate(w, v *Matrix, p, q int) {
	apq := w.At(p, q)
	if cmplx.Abs(apq) == 0 {
		return
	}
	app := real(w.At(p, p))
	aqq := real(w.At(q, q))

	// Diagonalize the 2x2 Hermitian block [[app, apq], [conj(apq), aqq]].
	// Write apq = |apq| e^{iα}. With phase factor e^{iα} absorbed, the block
	// becomes real symmetric and the classic Jacobi angle applies.
	absApq := cmplx.Abs(apq)
	phase := apq / complex(absApq, 0) // e^{iα}

	theta := 0.5 * math.Atan2(2*absApq, app-aqq)
	c := math.Cos(theta)
	s := math.Sin(theta)

	// Rotation: [p; q] <- [[c, s·e^{iα}], [-s·e^{-iα}, c]]ᴴ applied both sides.
	cs := complex(c, 0)
	sn := complex(s, 0) * phase

	n := w.Rows()
	// Update rows/cols p and q of w: w <- Jᴴ w J.
	for k := 0; k < n; k++ {
		wkp := w.At(k, p)
		wkq := w.At(k, q)
		w.Set(k, p, wkp*cs+wkq*cmplx.Conj(sn))
		w.Set(k, q, -wkp*sn+wkq*cs)
	}
	for k := 0; k < n; k++ {
		wpk := w.At(p, k)
		wqk := w.At(q, k)
		w.Set(p, k, cs*wpk+sn*wqk)
		w.Set(q, k, -cmplx.Conj(sn)*wpk+cs*wqk)
	}
	// Accumulate eigenvectors: v <- v J.
	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, vkp*cs+vkq*cmplx.Conj(sn))
		v.Set(k, q, -vkp*sn+vkq*cs)
	}
	// Clean numerical dust on the eliminated element.
	w.Set(q, p, 0)
	w.Set(p, q, 0)
	// Force the diagonal real (it is mathematically real).
	w.Set(p, p, complex(real(w.At(p, p)), 0))
	w.Set(q, q, complex(real(w.At(q, q)), 0))
}

// collect extracts sorted (descending) eigenpairs from the diagonalized
// working matrix and accumulated rotations into the workspace-owned Eigen.
func (ws *EigWorkspace) collect() *Eigen {
	n := ws.w.Rows()
	if cap(ws.idx) < n {
		ws.idx = make([]int, n)
	}
	ws.idx = ws.idx[:n]
	if cap(ws.vals) < n {
		ws.vals = make([]float64, n)
	}
	ws.vals = ws.vals[:n]
	for i := 0; i < n; i++ {
		ws.idx[i] = i
		ws.vals[i] = real(ws.w.At(i, i))
	}
	// Insertion sort, descending by eigenvalue: n is tiny and, unlike
	// sort.Slice, this allocates nothing.
	idx := ws.idx
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ws.vals[idx[j]] > ws.vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}

	out := &ws.out
	if cap(out.Values) < n {
		out.Values = make([]float64, n)
	}
	out.Values = out.Values[:n]
	if out.Vectors == nil {
		out.Vectors = NewMatrix(n, n)
	} else {
		out.Vectors.Reuse(n, n)
	}
	for col, src := range idx {
		out.Values[col] = ws.vals[src]
		var norm float64
		for row := 0; row < n; row++ {
			x := ws.v.At(row, src)
			re, im := real(x), imag(x)
			norm += re*re + im*im
		}
		s := complex(1, 0)
		if nrm := math.Sqrt(norm); nrm != 0 {
			s = complex(1/nrm, 0)
		}
		for row := 0; row < n; row++ {
			out.Vectors.Set(row, col, ws.v.At(row, src)*s)
		}
	}
	return out
}
