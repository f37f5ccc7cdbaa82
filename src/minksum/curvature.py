"""Curvature of Minkowski-sum boundaries.

The matrix C(n) = sum_i [A_i^2/|A_i n| - A_i^2 n n^T A_i^2 / |A_i n|^3] is
positive semidefinite of rank N-1 with null direction n; the principal
curvatures of the sum boundary at x(n) are the reciprocals of its positive
eigenvalues.  Reducing C to the tangent hyperplane with an orthonormal
basis M gives the (N-1)x(N-1) SPD matrix C~ = M^T C M whose determinant is
the Gauss-map area factor used for surface integrals.

The principal curvatures need C~ itself (`reduced_stack`) for N >= 4
only.  For N <= 3 `closed_form_curvatures` takes them, and `area_factors`
det C~ = det(C + tau n n^T) / tau, from C's distinct entries held as rows
over the nodes, with no tangent basis and no (K, N, N) array.

Production paths work directly with n; spherical-angle charts appear only
in `fundamental_forms`, which exists to connect C~ to the classical
G / L description.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EllipsoidSum, term_norms
from .spd import _ldl

# Chart points must keep polar angles this far from the poles.
CHART_POLE_EPS = 1e-6


@dataclass(frozen=True)
class CurvatureMatrix:
    """Full N x N curvature matrix C(n) together with its null direction."""

    full: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class TangentBasis:
    """N x (N-1) matrix of orthonormal columns orthogonal to the normal."""

    columns: np.ndarray
    normal: np.ndarray


def _curvature(stack: np.ndarray, squares: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """C(n) of the terms A_i in `stack` (A_i^2 in `squares`) at rows of normals; (K, N, N).

    Degree -1 homogeneous in n: each row is used at the length it has.
    """
    k, dim = ns.shape
    c = np.zeros((k, dim, dim))
    for a, a2 in zip(stack, squares):
        r = np.linalg.norm(ns @ a, axis=1)
        w = ns @ a2
        c += a2 / r[:, None, None]
        c -= w[:, :, None] * w[:, None, :] / (r**3)[:, None, None]
    return c


def curvature_term(a, n) -> np.ndarray:
    """Single-ellipsoid contribution C(A, n) = A^2/|An| - A^2 n n^T A^2/|An|^3.

    With n of arbitrary length this is the degree -1 homogeneous extension,
    which is the convention under which the GL(N) transformation law
    C((S A^2 S^T)^(1/2), n) = S C(A, S^T n) S^T holds.
    """
    a = np.asarray(a, dtype=float)
    return _curvature(a[None], (a @ a)[None], np.asarray(n, dtype=float)[None, :])[0]


def curvature_stack(scene: EllipsoidSum, normals: np.ndarray) -> np.ndarray:
    """C(n) for each row of unit normals; shape (K, N, N)."""
    ns = np.atleast_2d(np.asarray(normals, dtype=float))
    return _curvature(scene.stack, scene.squares, ns)


def curvature_matrix(scene: EllipsoidSum, n) -> CurvatureMatrix:
    """Curvature matrix of the sum boundary at the point with unit normal n."""
    n = np.asarray(n, dtype=float)
    return CurvatureMatrix(full=curvature_stack(scene, n[None, :])[0], normal=n)


def tangent_basis_stack(normals: np.ndarray) -> np.ndarray:
    """Householder tangent bases for rows of unit normals; shape (K, N, N-1).

    Columns 1..N-1 of the reflector mapping e_N to n.  Deterministic; for
    n = e_N the basis degenerates to the first N-1 identity columns.
    """
    ns = np.atleast_2d(np.asarray(normals, dtype=float))
    k, dim = ns.shape
    v = ns.copy()
    v[:, -1] -= 1.0
    s = np.einsum("ki,ki->k", v, v)
    h = np.broadcast_to(np.eye(dim), (k, dim, dim)).copy()
    ok = s > 1e-28  # n = e_N: v = 0 leaves the identity
    h[ok] -= 2.0 * v[ok, :, None] * v[ok, None, :] / s[ok, None, None]
    return h[:, :, : dim - 1]


def tangent_basis(n) -> TangentBasis:
    """Deterministic orthonormal tangent basis at a unit normal n."""
    n = np.asarray(n, dtype=float)
    return TangentBasis(columns=tangent_basis_stack(n[None, :])[0], normal=n)


def _reduce(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """M^T C M for stacks of C (K, N, N) and tangent bases M (K, N, N-1), symmetrised."""
    red = np.einsum("kpi,kpq,kqj->kij", m, c, m)
    return 0.5 * (red + np.swapaxes(red, 1, 2))


def reduced_curvature(c: CurvatureMatrix, basis: TangentBasis) -> np.ndarray:
    """Tangent-space reduction C~ = M^T C M; SPD of size (N-1) x (N-1)."""
    if not np.allclose(c.normal, basis.normal, atol=1e-12):
        raise ValueError("curvature matrix and tangent basis use different normals")
    return _reduce(c.full[None], basis.columns[None])[0]


def reduced_stack(scene: EllipsoidSum, normals: np.ndarray) -> np.ndarray:
    """C~(n) for each row of unit normals; shape (K, N-1, N-1)."""
    ns = np.atleast_2d(np.asarray(normals, dtype=float))
    return _reduce(curvature_stack(scene, ns), tangent_basis_stack(ns))


def _entries(scene: EllipsoidSum, n: np.ndarray, r: np.ndarray):
    """C's entries sum_i (A_i^2 - u_i u_i^T)_pq / |A_i n|, u_i = A_i^2 n / |A_i n|,
    as rows over the columns of an (N, K) array of unit normals, for p <= q
    (exact under power-of-two scaling); tau (`area_factors`); and the (p, q)."""
    upper = [(p, q) for p in range(len(n)) for q in range(p, len(n))]
    rows, cols = zip(*upper)
    inv_r = 1.0 / r
    c = scene.squares[:, rows, cols].T @ inv_r
    tau = np.trace(scene.squares, axis1=1, axis2=2) @ inv_r
    for a2, r_i in zip(scene.squares, r):
        u = a2 @ n
        u /= r_i
        v = u / r_i
        for row, (p, q) in zip(c, upper):
            row -= u[p] * v[q]
    return c, tau, upper


def _shifted_det(c, tau, upper, n) -> np.ndarray:
    """det(C + tau n n^T) / tau from `spd._ldl` pivots; overwrites `_entries`' c."""
    t = n * tau
    for row, (p, q) in zip(c, upper):
        row += t[p] * n[q]
    return np.prod(_ldl(c, len(n))[1], axis=0) / tau


def area_factors(scene: EllipsoidSum, n: np.ndarray, r: np.ndarray) -> np.ndarray:
    """det C~ at the columns of an (N, K) array of unit normals; shape (K,).

    `r` is the (m, K) array of |A_i n| (`geometry.term_norms`).  In 2D,
    C~ is the 1 x 1 sum_i det(A_i)^2 / |A_i n|^3, with det A_i from its
    entries (np.linalg.det does not scale exactly by powers of two).  For
    N >= 3, C(n) n = 0 gives det C~ = det(C + tau n n^T) / tau for any
    tau > 0; tau = sum_i tr(A_i^2) / |A_i n|, the trace of C's positive
    part, has C's scale and makes C + tau n n^T SPD (`_shifted_det`).
    """
    if len(n) == 2:
        a = scene.stack
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        return np.sum(np.square(det)[:, None] / (r * r * r), axis=0)
    return _shifted_det(*_entries(scene, n, r), n)


def closed_form_curvatures(scene: EllipsoidSum, n: np.ndarray, r: np.ndarray):
    """Principal curvatures (ascending), (N-1, K), and det C~, (K,), for N <= 3,
    at the columns of an (N, K) array of unit normals; `r` as in `area_factors`.
    In 2D kappa = 1 / det C~.  In 3D lambda_1 = tr C / 2 + sqrt(|D|_F^2 / 2)
    from C's tangential deviator D = C - (tr C / 2)(I - n n^T), which does
    not cancel at umbilics, and lambda_2 = det C~ / lambda_1 (LAPACK dlae2).
    """
    if len(n) == 2:
        det = area_factors(scene, n, r)
        return 1.0 / det[None], det
    c, tau, upper = _entries(scene, n, r)
    half = 0.5 * (c[0] + c[3] + c[5])
    d2 = [np.square(half * n[p] * n[q] + row - half * (p == q)) for row, (p, q) in zip(c, upper)]
    root = np.sqrt(0.5 * (d2[0] + d2[3] + d2[5]) + (d2[1] + d2[2] + d2[4]))
    lam = half + root
    det = _shifted_det(c, tau, upper, n)
    # det C~ = 0 means an exact zero pivot: lambda_2 = tr C - lambda_1 is finite
    k1, k2 = 1.0 / lam, lam / np.where(det == 0.0, lam * (half - root), det)
    return np.stack([np.minimum(k1, k2), np.maximum(k1, k2)]), det


def curvatures_from_reduced(red: np.ndarray) -> np.ndarray:
    """Principal curvatures (ascending) for each C~ of a (K, N-1, N-1) stack.

    They are the reciprocals of the eigenvalues of C~, which are the
    positive eigenvalues of C(n); shape (K, N-1).
    """
    return np.sort(1.0 / np.linalg.eigvalsh(red), axis=-1)


def principal_curvature_stack(scene: EllipsoidSum, normals: np.ndarray) -> np.ndarray:
    """Principal curvatures (ascending) at rows of unit normals, (K, N-1): in
    closed form for N <= 3, from each `reduced_stack` C~ for N >= 4."""
    ns = np.atleast_2d(np.asarray(normals, dtype=float))
    if scene.dim > 3:
        return curvatures_from_reduced(reduced_stack(scene, ns))
    n = np.ascontiguousarray(ns.T)
    return closed_form_curvatures(scene, n, term_norms(scene.stack, n))[0].T


def principal_curvatures(scene: EllipsoidSum, n) -> np.ndarray:
    """Principal curvatures (ascending) at the boundary point with normal n."""
    return principal_curvature_stack(scene, np.asarray(n, dtype=float)[None, :])[0]


def _chart_normal_and_jacobian(phi: np.ndarray, dim: int):
    """Hyperspherical chart n(phi) and the sphere Jacobian [dn/dphi_j].

    n_i = cos(phi_i) prod_{k<i} sin(phi_k), and the last coordinate carries
    no cosine.  Column j is prod_{k<j} sin(phi_k) (0, ..., 0, -sin(phi_j),
    cos(phi_j) nu), nu the unit normal of the chart on phi_{j+1}, ...: its
    entry i > j is n_i with sin(phi_j) replaced by cos(phi_j).  The chart
    is orthogonal: dn/dphi_j has norm prod_{k<j} sin(phi_k).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (dim - 1,):
        raise ValueError(f"chart point must have {dim - 1} angles")
    if dim > 2:
        polar = phi[: dim - 2]
        if np.any(polar < CHART_POLE_EPS) or np.any(polar > np.pi - CHART_POLE_EPS):
            raise ValueError("chart point too close to a coordinate pole")

    sins, coss = np.sin(phi), np.cos(phi)
    lead = np.cumprod(np.concatenate([[1.0], sins]))  # prod_{k<i} sin(phi_k)
    cos_last = np.append(coss, 1.0)  # the last coordinate carries no cosine
    # row j: the sines with cos(phi_j) in place j; the running product up to
    # place i - 1, times cos(phi_i), is entry i > j of column j
    swapped = np.cumprod(np.where(np.eye(dim - 1, dtype=bool), coss, sins), axis=1)
    jac = np.zeros((dim, dim - 1))
    jac[1:] = np.tril(swapped.T * cos_last[1:, None])
    jac[np.arange(dim - 1), np.arange(dim - 1)] = -lead[:-1] * sins
    return lead * cos_last, jac


def fundamental_forms(scene: EllipsoidSum, phi):
    """First and second fundamental forms (G, L) in a spherical chart.

    G = J~^T C~^2 J~ and L = J~^T C~ J~ with J~ the diagonal chart Jacobian,
    so the eigenvalues of G^-1 L are the principal curvatures.
    """
    n, jac = _chart_normal_and_jacobian(np.asarray(phi, float), scene.dim)
    norms = np.linalg.norm(jac, axis=0)
    c_red = _reduce(curvature_stack(scene, n[None, :]), (jac / norms)[None])[0]
    jt = np.diag(norms)
    g = jt @ c_red @ c_red @ jt
    ell = jt @ c_red @ jt
    return 0.5 * (g + g.T), 0.5 * (ell + ell.T)
