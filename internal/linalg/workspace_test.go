package linalg

import (
	"errors"
	"math/rand"
	"testing"
)

// TestEigWorkspaceMatchesOneShot reuses one workspace across many matrices
// of varying size and checks every decomposition against a fresh
// workspace's solve — workspace state must never leak between solves.
func TestEigWorkspaceMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws EigWorkspace
	for iter := 0; iter < 30; iter++ {
		n := 2 + iter%5
		a := randomHermitian(rng, n)
		got, err := ws.EigHermitian(a)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want, err := new(EigWorkspace).EigHermitian(a)
		if err != nil {
			t.Fatalf("iter %d one-shot: %v", iter, err)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("iter %d: %d values, want %d", iter, len(got.Values), len(want.Values))
		}
		for i := range got.Values {
			if !almostEq(complex(got.Values[i], 0), complex(want.Values[i], 0), 1e-12) {
				t.Fatalf("iter %d: value[%d]=%v, want %v", iter, i, got.Values[i], want.Values[i])
			}
		}
		verifyEigen(t, a, got, 1e-9)
	}
}

// TestEigWorkspaceResultStability documents that the workspace returns its
// own output storage: the previous *Eigen is overwritten by the next solve,
// so callers needing both must copy.
func TestEigWorkspaceResultStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws EigWorkspace
	a := randomHermitian(rng, 3)
	first, err := ws.EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	firstTop := first.Values[0]
	b := randomHermitian(rng, 3)
	second, err := ws.EigHermitian(b)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("workspace should reuse its output Eigen across same-size solves")
	}
	want, err := new(EigWorkspace).EigHermitian(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(complex(second.Values[0], 0), complex(want.Values[0], 0), 1e-12) {
		t.Fatalf("reused output top value %v, want %v (was %v)", second.Values[0], want.Values[0], firstTop)
	}
}

// TestEigWorkspaceAllocFree pins the hot-path claim: after warming on a
// size, repeated solves of that size allocate nothing.
func TestEigWorkspaceAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomHermitian(rng, 3)
	var ws EigWorkspace
	if _, err := ws.EigHermitian(a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.EigHermitian(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm workspace solve allocates %v/op, want 0", allocs)
	}
}

func TestEigWorkspaceErrors(t *testing.T) {
	var ws EigWorkspace
	rect := NewMatrix(2, 3)
	if _, err := ws.EigHermitian(rect); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("non-square: err=%v, want ErrDimensionMismatch", err)
	}
	nh := NewMatrix(2, 2)
	nh.Set(0, 1, 1)
	nh.Set(1, 0, 2)
	if _, err := ws.EigHermitian(nh); !errors.Is(err, ErrNotHermitian) {
		t.Errorf("non-Hermitian: err=%v, want ErrNotHermitian", err)
	}
	// The workspace must still solve correctly after rejecting input.
	rng := rand.New(rand.NewSource(9))
	a := randomHermitian(rng, 4)
	e, err := ws.EigHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	verifyEigen(t, a, e, 1e-9)
}

func TestMatrixReuseCopySetIdentity(t *testing.T) {
	var m Matrix
	m.Reuse(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("Reuse gave %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	m.Reuse(3, 2) // same capacity, new shape: must come back zeroed
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("Reuse left stale value at (%d,%d): %v", i, j, m.At(i, j))
			}
		}
	}
	src := NewMatrix(3, 2)
	src.Set(0, 1, 2+3i)
	src.Set(2, 0, -1i)
	if err := m.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2+3i || m.At(2, 0) != -1i {
		t.Fatal("CopyFrom did not copy entries")
	}
	var wrong Matrix
	wrong.Reuse(2, 2)
	if err := wrong.CopyFrom(src); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("shape-mismatched CopyFrom: err=%v, want ErrDimensionMismatch", err)
	}
	m.SetIdentity()
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("SetIdentity at (%d,%d)=%v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestMulVecInto(t *testing.T) {
	a := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, complex(float64(i+1), float64(j)))
		}
	}
	v := Vector{1, 2i, -1}
	want := make(Vector, 2)
	for i := range want {
		for j, x := range v {
			want[i] += a.At(i, j) * x
		}
	}
	dst := make(Vector, 2)
	if err := a.mulVecInto(dst, v); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(dst[i], want[i], 1e-15) {
			t.Fatalf("MulVecInto[%d]=%v, want %v", i, dst[i], want[i])
		}
	}
	if err := a.mulVecInto(make(Vector, 3), v); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("wrong dst length: err=%v, want ErrDimensionMismatch", err)
	}
	if err := a.mulVecInto(dst, Vector{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("wrong v length: err=%v, want ErrDimensionMismatch", err)
	}
}
