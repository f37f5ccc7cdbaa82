"""Spherical quadrature and surface integrals over Minkowski-sum boundaries.

A boundary integral of f over the sum is pulled back to the sphere by the
Gauss map: integral of f(x(n)) det C~(n) dsigma(n).  The sphere rule is
one exact product rule for every N: the trapezoid in azimuth times
Gauss-Gegenbauer rules in the polar cosines (Atkinson & Han, Spherical
Harmonics and Approximations on the Unit Sphere, 2012), the Gauss rules
built by the Golub-Welsch eigenvalue method.

Every integrand here is even in the node u (h, C(n) and det C~ are even
in n; a chart n = Bu/|Bu| is odd in u, its density even), so each runs
on `hemisphere`, half an even-resolution rule at doubled weights, as do
the searches of `bounds` and the triple terms of `steiner`.

`volume_divergence` and `surface_area` integrate in the Gauss-map chart
of the plain-sum ellipsoid, n = Bu/|Bu| with B = (sum_i A_i)^-1, which
makes a single ellipsoid's volume exact at any resolution (`_plain_chart`).
`volume_term_charts` gives each term A_k its own chart and splits the
integrand between them, which keeps sums of ill-conditioned terms
accurate; `bounds` checks against it for N >= 4.

The area factor det C~ comes from `curvature.area_factors` and the term
norms |A_i n| from `geometry.term_norms`, which the support function h
and the per-term chart shares reuse.  Nodes are evaluated in blocks of
_BLOCK, component-major, so each block's arrays stay in cache; the
per-node values are then summed over arrays in fixed node order, so
repeated runs produce bitwise-identical results.  Sphere rules are cached
and shared, with read-only arrays: copy them before writing.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import curvature, geometry
from .geometry import EllipsoidSum

# Nodes per block of the surface integrals: the (N, block) and (m, block)
# arrays of one block stay in cache.
_BLOCK = 8192


def sphere_measure(dim: int) -> float:
    """Total measure of the unit sphere S^(dim-1): 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball: pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class SphereQuadrature:
    """Unit-sphere nodes and positive weights summing to the sphere measure."""

    dim: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class _ProductRule(SphereQuadrature):
    """A `build_quadrature` rule; `hemisphere` halves it by its resolution."""

    resolution: int


def _gauss_gegenbauer(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [-1, 1] for the weight (1 - u^2)^(alpha - 1/2).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix and
    the weights mu_0 times the squared first eigenvector components.
    """
    k = np.arange(1.0, n)
    off = np.sqrt(k * (k + 2 * alpha - 1) / (4 * (k + alpha) * (k + alpha - 1)))
    u, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0)
    return u, mu0 * vecs[0] ** 2


def build_quadrature(dim: int, resolution: int) -> SphereQuadrature:
    """Quadrature on S^(dim-1) with resolution^(dim-1) nodes.

    `resolution` uniform azimuths with equal weights on the circle; each
    further dimension appends a polar cosine u from the `resolution`-point
    Gauss-Gegenbauer rule for (1 - u^2)^((k-3)/2) and scales the previous
    nodes by sqrt(1 - u^2), k being the new ambient dimension.  The rule
    integrates polynomials of degree < resolution exactly, so the weights
    sum to the sphere measure.  At dim = 3 the node (i, j) is
    (rho_i cos psi_j, rho_i sin psi_j, u_i), row i * resolution + j; the
    u_i ascend, so at even r node (i, j) has its antipode (r-1-i, j+r/2).
    Cached on (dim, resolution): every call returns the same rule, whose
    arrays are read-only, so a caller that writes to them copies first.
    """
    if dim < 2:
        raise ValueError("quadrature requires dim >= 2")
    if resolution < 4:
        raise ValueError("resolution must be at least 4")
    return _rule(operator.index(dim), operator.index(resolution))


@functools.lru_cache(maxsize=16)
def _rule(dim: int, resolution: int) -> _ProductRule:
    """The build behind `build_quadrature`; the cache keeps the 16 latest rules."""
    theta = 2.0 * np.pi * np.arange(resolution) / resolution
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(resolution, 2.0 * np.pi / resolution)
    for k in range(3, dim + 1):
        u, w = _gauss_gegenbauer(resolution, (k - 2) / 2.0)
        rho = np.sqrt(1.0 - u**2)
        nodes = np.column_stack(
            [
                (rho[:, None, None] * nodes).reshape(-1, k - 1),
                np.repeat(u, len(nodes)),
            ]
        )
        weights = np.outer(w, weights).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return _ProductRule(dim, nodes, weights, resolution)


def hemisphere(quad: SphereQuadrature) -> SphereQuadrature:
    """The rule an integrand even in the node u needs: `quad`, or half of it.

    For a `build_quadrature` rule of even resolution, the second half of
    its rows (at dim >= 3 those with u_N > 0) at doubled weights: each node
    of the first half has its antipode there, to within a few ulps.  An
    odd resolution, or a rule `build_quadrature` did not make, is whole.
    """
    if not isinstance(quad, _ProductRule) or quad.resolution % 2:
        return quad
    start = len(quad.nodes) // 2
    return SphereQuadrature(quad.dim, quad.nodes[start:], 2.0 * quad.weights[start:])


def _check_dim(scene: EllipsoidSum, quad: SphereQuadrature):
    if scene.dim != quad.dim:
        raise ValueError(
            f"scene dimension {scene.dim} != quadrature dimension {quad.dim}"
        )


def _blockwise(f, quad: SphereQuadrature) -> np.ndarray:
    """f(u, w) on blocks of _BLOCK rows u of `hemisphere(quad)` and their
    weights w, concatenated; f must be even in u."""
    half = hemisphere(quad)
    blocks = [slice(s, s + _BLOCK) for s in range(0, len(half.nodes), _BLOCK)]
    return np.concatenate([f(half.nodes[b], half.weights[b]) for b in blocks])


def _plain_chart(scene: EllipsoidSum, quad: SphereQuadrature, f) -> float:
    """Integral of f(r) det C~(n), r the term norms |A_i n|, in the chart of
    B = (sum_i A_i)^-1 (`volume_divergence`)."""
    _check_dim(scene, quad)
    b = np.linalg.inv(np.sum(scene.stack, axis=0))

    def integrand(u, w):
        n, density = _chart(u, b)
        r = geometry.term_norms(scene.stack, n)
        return w * density * f(r) * curvature.area_factors(scene, n, r)

    return float(np.sum(_blockwise(integrand, quad)))


def surface_area(scene: EllipsoidSum, quad: SphereQuadrature) -> float:
    """Boundary measure (perimeter for N = 2, surface area for N = 3): the
    integral of det C~ in the plain-sum chart of `volume_divergence`."""
    return _plain_chart(scene, quad, lambda r: 1.0)


def mean_curvature_integral(scene: EllipsoidSum, quad: SphereQuadrature) -> float:
    """Integral of mean curvature over the boundary (N = 3 only).

    Equals (1/2) integral of tr C(n) dsigma; the area factor cancels, so
    the integrand is tr C directly.  Additive over scene terms.
    """
    if scene.dim != 3:
        raise ValueError("mean_curvature_integral requires a 3D scene")
    _check_dim(scene, quad)

    def integrand(u, w):
        return w * np.trace(curvature.curvature_stack(scene, u), axis1=1, axis2=2)

    return float(0.5 * np.sum(_blockwise(integrand, quad)))


def gaussian_curvature_integral(scene: EllipsoidSum, quad: SphereQuadrature) -> float:
    """Total Gaussian curvature of the boundary; 2 pi (N=2) or 4 pi (N=3).

    Computed as the surface integral of the product of principal
    curvatures.  That product times det C~ is identically 1, so the result
    is the sum of the weights up to rounding: it does not probe the
    quadrature's accuracy on the scene.
    """
    if scene.dim not in (2, 3):
        raise ValueError("gaussian_curvature_integral supports N in {2, 3}")
    _check_dim(scene, quad)

    def integrand(u, w):
        red = curvature.reduced_stack(scene, u)
        # np.linalg.det of a 1 x 1 stack can miss its entry by one ulp
        dets = red[:, 0, 0] if scene.dim == 2 else np.linalg.det(red)
        # at most two factors, whose product does not depend on their order
        return w * np.prod(curvature.curvatures_from_reduced(red), axis=1) * dets

    return float(np.sum(_blockwise(integrand, quad)))


def volume_divergence(scene: EllipsoidSum, quad: SphereQuadrature) -> float:
    """Volume via the divergence theorem: (1/N) integral of h(n) det C~(n).

    The integral is taken in the Gauss-map chart (`_chart`) of the plain
    sum, B = (sum_i A_i)^-1.  For m = 1 the integrand h det C~ =
    det(A)^2 / |An|^N times the chart's Jacobian is the constant det A, so
    the rule returns V_B det A at any resolution.  For m >= 2 the chart
    follows the plain sum's shape only, so the error still grows when the
    terms are ill-conditioned in different directions.
    """
    return _plain_chart(scene, quad, lambda r: np.sum(r, axis=0)) / scene.dim


def volume_term_charts(scene: EllipsoidSum, quad: SphereQuadrature) -> float:
    """The divergence volume integrated in one Gauss-map chart per term.

    Chart k maps rule nodes u to n = A_k^-1 u/|A_k^-1 u|, with density
    q_k(n) = det A_k / |A_k n|^N on the sphere.  The integrand h det C~ is
    split into the pieces weighted q_k / sum_j q_j (the balance heuristic of
    Veach & Guibas, SIGGRAPH 1995), and piece k is integrated in chart k.
    Each chart has resolution r / m^(1/(N-1)), r being implied by the node
    count of `quad`, so the total node count stays that of `quad`; an odd
    one has no antipodal pairs and is used whole.  Exact for one ellipsoid
    and for sums of balls.
    """
    _check_dim(scene, quad)
    dim, m = scene.dim, scene.m
    base = build_quadrature(dim, max(4, round((len(quad.nodes) / m) ** (1.0 / (dim - 1)))))
    inv, det = np.linalg.inv(scene.stack), np.linalg.det(scene.stack)

    def integrand(k, u, w):
        n, density = _chart(u, inv[k])
        r = geometry.term_norms(scene.stack, n)
        q = det[:, None] / r**dim
        share = w * density * q[k] / np.sum(q, axis=0)
        return share * np.sum(r, axis=0) * curvature.area_factors(scene, n, r)

    pieces = [_blockwise(functools.partial(integrand, k), base) for k in range(m)]
    return float(np.sum(np.concatenate(pieces)) / dim)


def _chart(u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows u of rule nodes carried to the normals n = Bu/|Bu|, component-major
    (N, K), and the chart's density det B / |Bu|^N."""
    bu = b.T @ u.T
    r = np.linalg.norm(bu, axis=0)
    return bu / r, np.linalg.det(b) / r ** len(bu)


def default_resolution(dim: int) -> int:
    """Default CLI/quadrature resolution: 256 for N = 2, 64 otherwise."""
    return 256 if dim == 2 else 64


def default_quadrature(dim: int) -> SphereQuadrature:
    return build_quadrature(dim, default_resolution(dim))
