package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestVectorDimensionMismatch(t *testing.T) {
	v := Vector{1}
	w := Vector{1, 2}
	if _, err := v.dot(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("dot err = %v, want ErrDimensionMismatch", err)
	}
}

func TestVectorDotHermitian(t *testing.T) {
	v := Vector{1 + 1i, 2}
	// conj(v)·v must be real and equal |v|².
	d, err := v.dot(v)
	if err != nil {
		t.Fatalf("dot: %v", err)
	}
	if math.Abs(imag(d)) > eps {
		t.Fatalf("self dot not real: %v", d)
	}
	if math.Abs(real(d)-6) > eps {
		t.Fatalf("self dot = %v, want 6", real(d))
	}
}

func TestVectorNormNormalize(t *testing.T) {
	v := Vector{3, 4i}
	if got := v.norm(); math.Abs(got-5) > eps {
		t.Fatalf("norm = %v, want 5", got)
	}
	u := make(Vector, len(v))
	for i := range v {
		u[i] = v[i] / complex(v.norm(), 0)
	}
	if math.Abs(u.norm()-1) > eps {
		t.Fatalf("normalized norm = %v", u.norm())
	}
	if z := (Vector{0, 0}).norm(); z != 0 {
		t.Fatalf("zero vector norm = %v", z)
	}
}

func TestMatrixMul(t *testing.T) {
	a, err := matrixFromRows([][]complex128{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("from rows: %v", err)
	}
	b, err := matrixFromRows([][]complex128{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatalf("from rows: %v", err)
	}
	p, err := a.mul(b)
	if err != nil {
		t.Fatalf("mul: %v", err)
	}
	want := [][]complex128{{2, 1}, {4, 3}}
	for i := range want {
		for j := range want[i] {
			if !almostEq(p.At(i, j), want[i][j], eps) {
				t.Fatalf("p[%d][%d] = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{1, 1i}, {0, 2}})
	got := make(Vector, 2)
	if err := a.mulVecInto(got, Vector{1, 1}); err != nil {
		t.Fatalf("mulvec: %v", err)
	}
	if !almostEq(got[0], 1+1i, eps) || !almostEq(got[1], 2, eps) {
		t.Fatalf("got %v", got)
	}
	if err := a.mulVecInto(got, Vector{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mulvec err = %v", err)
	}
}

func TestMatrixFromRowsErrors(t *testing.T) {
	if _, err := matrixFromRows(nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("empty rows err = %v", err)
	}
	if _, err := matrixFromRows([][]complex128{{1}, {1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("ragged rows err = %v", err)
	}
}

func TestConjTranspose(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{1 + 1i, 2}, {3i, 4}})
	h := a.conjTranspose()
	if !almostEq(h.At(0, 0), 1-1i, eps) || !almostEq(h.At(1, 0), 2, eps) ||
		!almostEq(h.At(0, 1), -3i, eps) || !almostEq(h.At(1, 1), 4, eps) {
		t.Fatalf("conj transpose wrong:\n%v", h)
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{1 + 1i, 2}, {3i, 4}})
	id := NewMatrix(2, 2)
	id.SetIdentity()
	p, err := id.mul(a)
	if err != nil {
		t.Fatalf("mul: %v", err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(p.At(i, j), a.At(i, j), eps) {
				t.Fatalf("identity mul changed matrix")
			}
		}
	}
}

// randomHermitian builds an n×n Hermitian matrix with entries drawn from rng.
func randomHermitian(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestEigHermitianDiagonal(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{3, 0}, {0, 1}})
	e, err := new(EigWorkspace).EigHermitian(a)
	if err != nil {
		t.Fatalf("eig: %v", err)
	}
	if math.Abs(e.Values[0]-3) > eps || math.Abs(e.Values[1]-1) > eps {
		t.Fatalf("values = %v", e.Values)
	}
}

func TestEigHermitianKnown2x2(t *testing.T) {
	// [[2, 1],[1, 2]] has eigenvalues 3 and 1.
	a, _ := matrixFromRows([][]complex128{{2, 1}, {1, 2}})
	e, err := new(EigWorkspace).EigHermitian(a)
	if err != nil {
		t.Fatalf("eig: %v", err)
	}
	if math.Abs(e.Values[0]-3) > 1e-8 || math.Abs(e.Values[1]-1) > 1e-8 {
		t.Fatalf("values = %v, want [3 1]", e.Values)
	}
}

func TestEigHermitianComplexKnown(t *testing.T) {
	// [[1, i],[-i, 1]] has eigenvalues 2 and 0.
	a, _ := matrixFromRows([][]complex128{{1, 1i}, {-1i, 1}})
	e, err := new(EigWorkspace).EigHermitian(a)
	if err != nil {
		t.Fatalf("eig: %v", err)
	}
	if math.Abs(e.Values[0]-2) > 1e-8 || math.Abs(e.Values[1]) > 1e-8 {
		t.Fatalf("values = %v, want [2 0]", e.Values)
	}
}

func TestEigHermitianRejectsNonHermitian(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{1, 2}, {3, 4}})
	if _, err := new(EigWorkspace).EigHermitian(a); !errors.Is(err, ErrNotHermitian) {
		t.Fatalf("err = %v, want ErrNotHermitian", err)
	}
	b := NewMatrix(2, 3)
	if _, err := new(EigWorkspace).EigHermitian(b); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
}

// verifyEigen checks A·v = λ·v for every pair and orthonormality of vectors.
func verifyEigen(t *testing.T, a *Matrix, e *Eigen, tol float64) {
	t.Helper()
	n := a.Rows()
	for k := 0; k < n; k++ {
		v := e.Vectors.col(k)
		av := make(Vector, n)
		if err := a.mulVecInto(av, v); err != nil {
			t.Fatalf("mulvec: %v", err)
		}
		for i := range av {
			av[i] -= complex(e.Values[k], 0) * v[i]
		}
		if r := av.norm(); r > tol {
			t.Fatalf("eigenpair %d residual %v > %v (λ=%v)", k, r, tol, e.Values[k])
		}
	}
	// Orthonormality.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d, _ := e.Vectors.col(i).dot(e.Vectors.col(j))
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(d-want) > tol {
				t.Fatalf("vectors %d,%d not orthonormal: %v", i, j, d)
			}
		}
	}
	// Sorted descending.
	for i := 1; i < n; i++ {
		if e.Values[i] > e.Values[i-1]+tol {
			t.Fatalf("values not sorted: %v", e.Values)
		}
	}
}

func TestEigHermitianRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 4, 5, 8} {
		for trial := 0; trial < 20; trial++ {
			a := randomHermitian(rng, n)
			e, err := new(EigWorkspace).EigHermitian(a)
			if err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			verifyEigen(t, a, e, 1e-7*math.Max(1, a.FrobeniusNorm()))
		}
	}
}

func TestEigTracePreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomHermitian(rng, 6)
	e, err := new(EigWorkspace).EigHermitian(a)
	if err != nil {
		t.Fatalf("eig: %v", err)
	}
	var tr, sum float64
	for i, v := range e.Values {
		tr += real(a.At(i, i))
		sum += v
	}
	if math.Abs(tr-sum) > 1e-8 {
		t.Fatalf("trace %v != eigenvalue sum %v", tr, sum)
	}
}

// TestNoiseSubspace: the eigenvector columns past the signal count — the
// MUSIC noise subspace, read in place by music.Plan.PseudospectrumInto —
// are orthogonal to the signal eigenvector.
func TestNoiseSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomHermitian(rng, 4)
	e, err := new(EigWorkspace).EigHermitian(a)
	if err != nil {
		t.Fatalf("eig: %v", err)
	}
	sig := e.Vectors.col(0)
	for j := 1; j < 4; j++ {
		d, _ := sig.dot(e.Vectors.col(j))
		if cmplx.Abs(d) > 1e-8 {
			t.Fatalf("noise col %d not orthogonal to signal: %v", j, d)
		}
	}
}

func TestEigZeroMatrix(t *testing.T) {
	a := NewMatrix(3, 3)
	e, err := new(EigWorkspace).EigHermitian(a)
	if err != nil {
		t.Fatalf("eig zero: %v", err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", e.Values)
		}
	}
}

// Property: for random vectors, ‖v‖² equals conj(v)·v.
func TestQuickNormMatchesDot(t *testing.T) {
	f := func(res, ims []float64) bool {
		n := len(res)
		if len(ims) < n {
			n = len(ims)
		}
		if n == 0 {
			return true
		}
		v := make(Vector, n)
		for i := 0; i < n; i++ {
			// Clamp to keep the squares finite.
			re := math.Mod(res[i], 1e6)
			im := math.Mod(ims[i], 1e6)
			if math.IsNaN(re) || math.IsNaN(im) {
				return true
			}
			v[i] = complex(re, im)
		}
		d, err := v.dot(v)
		if err != nil {
			return false
		}
		n2 := v.norm() * v.norm()
		scale := math.Max(1, n2)
		return math.Abs(real(d)-n2) <= 1e-6*scale && math.Abs(imag(d)) <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mirror-of-mirror across a segment is the identity, and Hermitian
// eigendecomposition reconstructs the matrix: A = V diag(λ) Vᴴ.
func TestQuickEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		a := randomHermitian(rng, n)
		e, err := new(EigWorkspace).EigHermitian(a)
		if err != nil {
			t.Fatalf("eig: %v", err)
		}
		// Reconstruct V·diag(λ)·Vᴴ.
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, complex(e.Values[i], 0))
		}
		vd, err := e.Vectors.mul(d)
		if err != nil {
			t.Fatalf("mul: %v", err)
		}
		rec, err := vd.mul(e.Vectors.conjTranspose())
		if err != nil {
			t.Fatalf("mul: %v", err)
		}
		diff := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				diff.Set(i, j, rec.At(i, j)-a.At(i, j))
			}
		}
		if diff.FrobeniusNorm() > 1e-7*math.Max(1, a.FrobeniusNorm()) {
			t.Fatalf("reconstruction error %v", diff.FrobeniusNorm())
		}
	}
}

func TestMatrixScale(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{1, 2}, {3, 4}})
	b := a.Scale(2)
	if !almostEq(b.At(1, 1), 8, eps) || !almostEq(a.At(1, 1), 4, eps) {
		t.Fatalf("scale wrong: %v (source %v)", b.At(1, 1), a.At(1, 1))
	}
	c := NewMatrix(3, 2)
	if _, err := a.mul(c.conjTranspose().conjTranspose()); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mul shape err = %v", err)
	}
}

// TestRowColClone: Rows and Cols report the shape, and col returns a clone
// of the column, not a view into the matrix.
func TestRowColClone(t *testing.T) {
	a, _ := matrixFromRows([][]complex128{{1, 2}, {3, 4}, {5, 6}})
	if a.Rows() != 3 || a.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 3x2", a.Rows(), a.Cols())
	}
	c := a.col(0)
	if !almostEq(c[0], 1, eps) || !almostEq(c[1], 3, eps) || !almostEq(c[2], 5, eps) {
		t.Fatalf("col = %v", c)
	}
	c[1] = 99
	if almostEq(a.At(1, 0), 99, eps) {
		t.Fatalf("col aliases matrix")
	}
}

func TestIsHermitianNonSquare(t *testing.T) {
	if NewMatrix(2, 3).IsHermitian(eps) {
		t.Fatal("non-square reported Hermitian")
	}
}
