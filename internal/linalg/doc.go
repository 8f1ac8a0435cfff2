// Package linalg provides the small dense complex linear-algebra kernel the
// rest of the repository builds on: complex vectors, matrices, and a
// Hermitian eigendecomposition.
//
// The standard library has no linear algebra, and MUSIC (internal/music)
// needs eigenvectors of small Hermitian covariance matrices, so this package
// implements a cyclic Jacobi eigensolver from scratch. Sizes are small
// (antenna counts, subcarrier counts), so clarity is favoured over blocking
// or SIMD tricks.
//
// Hot-path callers avoid per-call allocation through the workspace surface:
// EigWorkspace owns the Jacobi solver's working matrices and result storage
// and may be reused across solves of any size (a one-off solve uses a fresh
// workspace), and Matrix.Reuse/CopyFrom/SetIdentity let covariance code
// write into caller-owned buffers. Workspace results are overwritten by the next solve on that
// workspace; callers needing two decompositions at once copy or use two
// workspaces.
package linalg
