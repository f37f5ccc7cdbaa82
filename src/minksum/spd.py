"""Dense small-N symmetric positive-definite linear algebra.

Eigendecompositions are LAPACK's symmetric solver (`numpy.linalg.eigh`).
Its output is bitwise reproducible for a fixed LAPACK/BLAS build and a
fixed BLAS thread count, which is what the byte-identical CLI output
relies on.  Eigenvector signs are normalized so the factorization does
not depend on the solver's sign choice.  All derived SPD results are
explicitly symmetrized before validation to absorb roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative cutoff below which an eigenvalue disqualifies a matrix as SPD.
# Degenerate (zero semi-axis) ellipsoids are intentionally not representable.
EPS_PD = 1e-10

# Relative symmetry tolerance accepted on construction.
SYM_TOL = 1e-12


class SpdError(ValueError):
    """Raised when a matrix fails symmetric positive-definite validation."""


def _check_symmetric(mat, tol: float) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SpdError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise SpdError("matrix has non-finite entries")
    scale = max(np.linalg.norm(mat), 1.0)
    if np.linalg.norm(mat - mat.T) > tol * scale:
        raise SpdError("matrix is not symmetric within tolerance")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class SymEigen:
    """Spectral factorization V diag(lam) V^T with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return V @ np.diag(self.eigenvalues) @ V.T


def sym_eigen(mat) -> SymEigen:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in ascending order.  The sign of each
    eigenvector is fixed by making its largest-magnitude entry positive,
    so the factorization is deterministic.
    """
    lam, V = np.linalg.eigh(_check_symmetric(mat, 1e-10))
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return SymEigen(eigenvalues=lam, eigenvectors=V * np.sign(peak))


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite N x N matrix with a validated spectrum."""

    entries: np.ndarray

    def __post_init__(self):
        m = _check_symmetric(self.entries, SYM_TOL)
        lam = np.linalg.eigvalsh(m)
        if lam[-1] <= 0 or lam[0] <= EPS_PD * lam[-1]:
            raise SpdError(
                f"matrix is not positive definite (eigenvalues {lam})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def det(self) -> float:
        return float(np.linalg.det(self.entries))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _sym_part(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _spectral(eig: SymEigen, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T for the eigenvectors V of `eig`, symmetrized."""
    V = eig.eigenvectors
    return _sym_part(V @ np.diag(values) @ V.T)


def _sqrt_raw(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric PSD array (no SPD validation)."""
    eig = sym_eigen(_sym_part(mat))
    return _spectral(eig, np.sqrt(np.clip(eig.eigenvalues, 0.0, None)))


def spd_sqrt(mat: SpdMatrix) -> SpdMatrix:
    """Principal matrix square root: result R is SPD with R @ R = mat."""
    return SpdMatrix(_sqrt_raw(mat.entries))


def _inv_sqrt_raw(mat: np.ndarray) -> np.ndarray:
    eig = sym_eigen(_sym_part(mat))
    return _spectral(eig, 1.0 / np.sqrt(eig.eigenvalues))


def geometric_mean(p: SpdMatrix, q: SpdMatrix) -> SpdMatrix:
    """Operator geometric mean P^(1/2) (P^(-1/2) Q P^(-1/2))^(1/2) P^(1/2).

    Midpoint of the geodesic from P to Q in the SPD manifold; symmetric
    in its arguments, and equal to P^(1/2) Q^(1/2) when P and Q commute.
    P^(1/2) and P^(-1/2) come from one eigendecomposition of P.
    """
    if p.dim != q.dim:
        raise SpdError(f"dimension mismatch: {p.dim} vs {q.dim}")
    eig = sym_eigen(_sym_part(p.entries))
    root = np.sqrt(eig.eigenvalues)
    ph = _spectral(eig, root)
    phi = _spectral(eig, 1.0 / root)
    inner = _sqrt_raw(phi @ q.entries @ phi)
    return SpdMatrix(_sym_part(ph @ inner @ ph))
