"""Dense small-N symmetric positive-definite linear algebra.

Matrices are validated, as `SpdMatrix`, only where they enter the library
(scene parsing, `EllipsoidSum.from_matrices`, public arguments) and where
results leave it (`BoundReport` fields, public return values).  In between,
private helpers pass exactly symmetric raw arrays and check nothing; a
product such as A @ A goes through `_sym_part`, which returns an exactly
symmetric array bit for bit.  A validated `SpdMatrix` is read-only,
compares and hashes by its bytes, and computes its determinant once, on
first use.

Eigendecompositions are LAPACK's symmetric solver (`numpy.linalg.eigh`).
Its output is bitwise reproducible for a fixed LAPACK/BLAS build, kernel
set and BLAS thread count, which is what the byte-identical CLI output
relies on.  numpy's bundled OpenBLAS picks its kernels by CPU (SkylakeX on
AVX-512 machines, Haswell on AVX2 ones), and the kernels sum in different
orders, so low bits differ between them; the test suite's bitwise goldens
are captured under the Haswell kernels (OPENBLAS_CORETYPE=Haswell, which
tests/conftest.py sets).  Eigenvector signs are normalized so the
factorization does not depend on the solver's sign choice.

Every root of a Gram matrix, |G| = (G^T G)^(1/2) for a square or tall G,
is `_abs`, from the SVD of G, so the entries of G are never squared.

Pools of small SPD matrices, one per node or sample, are factored by
`_ldl`: an unpivoted LDL^T held component-major, whose loops run over N
on whole pool rows.  The Monte Carlo oracle solves with it and
`curvature.area_factors` takes determinants from its pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    if not np.isfinite(mat).all():
        raise SpdError("matrix has non-finite entries")
    if np.linalg.norm(mat - mat.T) > tol * np.linalg.norm(mat):
        raise SpdError("matrix is not symmetric within tolerance")
    return _sym_part(mat)


def _sym_part(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and sign-normalized eigenvectors of a symmetric array."""
    lam, V = np.linalg.eigh(mat)
    peak = V[abs(V).argmax(axis=0), np.arange(V.shape[1])]
    return lam, V * np.sign(peak)


@dataclass(frozen=True)
class SymEigen:
    """Spectral factorization V diag(lam) V^T with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(mat) -> SymEigen:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues are returned in ascending order.  The sign of each
    eigenvector is fixed by making its largest-magnitude entry positive,
    so the factorization is deterministic.
    """
    lam, V = _eigh(_check_symmetric(mat, 1e-10))
    return SymEigen(eigenvalues=lam, eigenvectors=V)


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite N x N matrix with a validated spectrum."""

    entries: np.ndarray

    def __post_init__(self):
        m = _check_symmetric(self.entries, SYM_TOL)
        lam = np.linalg.eigvalsh(m)
        if lam[-1] <= 0 or lam[0] <= EPS_PD * lam[-1]:
            raise SpdError(f"matrix is not positive definite (eigenvalues {lam})")
        m.setflags(write=False)
        # a view of a read-only array cannot be made writable: det and hash stay valid
        object.__setattr__(self, "entries", m.view())

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def det(self) -> float:
        """The determinant, computed once per matrix (the entries are read-only)."""
        return self._det

    @cached_property
    def _det(self) -> float:
        return float(np.linalg.det(self.entries))

    def __eq__(self, other):
        """Bitwise value equality: the same shape and the same entry bytes."""
        if not isinstance(other, SpdMatrix):
            return NotImplemented
        return (self.dim, self.entries.tobytes()) == (other.dim, other.entries.tobytes())

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _ldl(upper, dim: int) -> tuple[list, list]:
    """Unpivoted LDL^T factors of a pool of symmetric matrices held component-major.

    `upper` holds one row per entry of the upper triangle, in
    np.triu_indices(dim) order, and one column per matrix.  Returns
    (low, d): low[i][k] = L_ik for k < i and the pivots d_j, each a row
    over the pool.  An SPD matrix needs no pivoting, and its determinant
    is the product of the d_j (Golub & Van Loan, Matrix Computations,
    4th ed., 4.2).  The loops run over N, and each step works on whole
    pool rows.  A zero pivot, which only a matrix singular to working
    precision gives, leaves its column of L at 0 rather than dividing by
    it, so the factors of finite entries are finite.
    """
    # the factorisation visits H_ji, j <= i, in np.triu_indices order
    entries = iter(upper)
    # ld[i][k] = L_ik d_k and low[i][k] = L_ik for k < i
    ld = [[None] * dim for _ in range(dim)]
    low = [[None] * dim for _ in range(dim)]
    d = []
    for j in range(dim):
        for i in range(j, dim):
            v = next(entries)
            for k in range(j):
                v = v - ld[i][k] * low[j][k]
            if i == j:
                d.append(v)
                pivot = v if v.all() else np.where(v == 0.0, np.inf, v)
            else:
                ld[i][j], low[i][j] = v, v / pivot
    return low, d


def _spectral(V: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^T, symmetrized, with the bits of V @ np.diag(values) @ V.T."""
    return _sym_part((V * values) @ V.T)


def _abs(g: np.ndarray) -> np.ndarray:
    """|G| = (G^T G)^(1/2) of a stack of k x N arrays, k >= N, from the thin SVD of G."""
    _, sv, vh = np.linalg.svd(g, full_matrices=False)
    return _sym_part(vh.swapaxes(-1, -2) * sv[..., None, :] @ vh)


def _sqrt_raw(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric PSD array (no SPD validation)."""
    lam, V = _eigh(_sym_part(mat))
    return _spectral(V, np.sqrt(np.clip(lam, 0.0, None)))


def spd_sqrt(mat: SpdMatrix) -> SpdMatrix:
    """Principal matrix square root: result R is SPD with R @ R = mat."""
    return SpdMatrix(_sqrt_raw(mat.entries))


def _inv_sqrt_raw(mat: np.ndarray) -> np.ndarray:
    lam, V = _eigh(_sym_part(mat))
    return _spectral(V, 1.0 / np.sqrt(lam))


def _geometric_mean_raw(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Geometric mean of symmetric arrays (no SPD validation)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = _inv_sqrt_raw(p)
    if not np.isfinite(phi).all():
        raise SpdError("matrix is not positive definite in floating point")
    inner = _sqrt_raw(phi @ q @ phi)
    ph = _sqrt_raw(p)
    return _sym_part(ph @ inner @ ph)


def geometric_mean(p: SpdMatrix, q: SpdMatrix) -> SpdMatrix:
    """Operator geometric mean P^(1/2) (P^(-1/2) Q P^(-1/2))^(1/2) P^(1/2).

    Midpoint of the geodesic from P to Q in the SPD manifold; symmetric
    in its arguments, and equal to P^(1/2) Q^(1/2) when P and Q commute.
    """
    if p.dim != q.dim:
        raise SpdError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return SpdMatrix(_geometric_mean_raw(p.entries, q.entries))
