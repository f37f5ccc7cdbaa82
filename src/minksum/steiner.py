"""Exact areas and volumes of ellipsoid sums via Steiner's and mixed-volume formulas.

Offsetting a convex body K by a ball of radius r expands its volume by
quermassintegral terms; since E_1 + E_2 = A_2 (A_2^-1 E_1 + B^N), the
offset view turns pairwise sums into closed-form expressions.  In 2D the
area is the mixed-area sum pi sum_i det A_i + sum_{i<j} det A_j
L(A_j^-1 E_i), L the perimeter of an ellipse, so it is exact for any m.

In 3D the volume is the mixed-volume polynomial (Schneider, Convex
Bodies, 2nd ed., 2014, ch. 5)

    V(sum E_i) = sum_i V_B det A_i + 3 sum_{i != j} V(E_i, E_i, E_j)
                 + 6 sum_{i < j < k} V(E_i, E_j, E_k).

A pair term is closed: V(E_i, E_i, E_j) = det A_i (4 pi / 3)
R_G(s_1^2, s_2^2, s_3^2), s the singular values of A_i^-1 A_j, with
Carlson's symmetric integral R_G (the mean of |M u| over the sphere).  A
triple term is a sphere mean, V(E_i, E_j, E_k) = (2/3) det A_k mean_u
L(sigma_1, sigma_2): L is the perimeter of the ellipse with semi-axes
sigma, the nonzero singular values of [a]x Q for a = A_k^-1 A_i u and
Q = A_k^-1 A_j.  The integrand is smooth and even in u.  The Steiner
sandwich of `volume_sum_3d_bounds` brackets the surface-area part of each
recursion step between the areas of linear images of the partial sum's
inner and outer ellipsoids (area is monotone under inclusion); an
ellipsoid's area is closed, 4 pi |det M| R_G(sigma^-2) (DLMF 19.33.1).

Every ellipse perimeter, E(x) included, comes from one arithmetic-geometric
mean on whole arrays (`_perimeters`), and R_G from Carlson's duplication
in plain `math`, so this module (and the CLI) needs no scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, quadrature
from .geometry import EllipsoidSum
from .spd import SpdMatrix

# The AGM stops once c_n <= AGM_RTOL * a_n, or after AGM_MAX_STEPS steps.
# The stop is relative: a_n and g_n can stay one ulp apart forever, so an
# absolute stop on c_n never ends for some moduli.
AGM_RTOL = 1e-15
AGM_MAX_STEPS = 40

# Relative error target r of Carlson's duplication for R_F and R_D
# (Numer. Algorithms 10, 1995): the loop runs until 4^-n Q < A_n, with
# Q = (3r)^(-1/6) max|A_0 - x| for R_F and (r/4)^(-1/6) max|A_0 - x| for R_D.
CARLSON_RTOL = 1e-16

# Triples are evaluated in blocks of at most this many (triple, node) pairs,
# which bounds the kernel's temporaries to about 2 MB at any m.
TRIPLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class SteinerReport:
    """Exact value (when available) and lower/upper volume bounds."""

    lower: float
    upper: float
    exact_value: float | None = None
    components: tuple = field(default_factory=tuple)


def elliptic_E(x: float) -> float:
    """Complete elliptic integral E(x) = int_0^(pi/2) sqrt(1 - x^2 sin^2 t) dt.

    A quarter of the perimeter of the ellipse with semi-axes 1 and
    g = sqrt(1 - x^2), from `_perimeters` (Abramowitz & Stegun 17.6).
    g^2 is formed as (1 - x)(1 + x), which keeps full precision as x -> 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("elliptic modulus must lie in [0, 1]")
    if x == 1.0:  # g = 0: the means would never meet
        return 1.0
    g2 = (1.0 - x) * (1.0 + x)
    return math.pi * float(_perimeters(1.0 + g2, math.sqrt(g2)))


def area_sum_2d_pair(a1: SpdMatrix, a2: SpdMatrix) -> float:
    """Exact area of E_1 + E_2 in the plane (`area_sum_2d_recursive` of the pair).

    pi (det A1 + det A2) + L(d(A2^-1 E_1)) det A2, where the scaled
    ellipse has semi-axes equal to the singular values of A2^-1 A1.
    """
    if a1.dim != 2 or a2.dim != 2:
        raise ValueError("area_sum_2d_pair requires 2x2 matrices")
    return area_sum_2d_recursive(EllipsoidSum((a1, a2)))


def area_sum_2d_recursive(scene: EllipsoidSum) -> float:
    """Exact area of an m-fold sum of ellipses: its mixed areas.

    A(sum E_i) = pi sum_i det A_i + sum_{i<j} det A_j L(A_j^-1 E_i), the
    2D mixed-area polynomial, which is also the recursion
    A(S_{k+1}) = A(S_k) + det A_{k+1} L(A_{k+1}^-1 S_k) + A(E_{k+1}) with
    the perimeter of the partial sum split per ellipse.  The semi-axes
    sigma of M = A_j^-1 A_i satisfy sigma_1^2 + sigma_2^2 = |M|_F^2 and
    sigma_1 sigma_2 = det M = det A_i / det A_j, so one batched solve and
    one `_perimeters` call give every pair.  det M is taken from the terms,
    not from the solved M: near condition 1e9 rounding in M can turn its
    determinant negative.  Each M, and each term, is first scaled by the
    power of two at its largest entry, which is exact and keeps |M|_F^2
    and det M from underflowing or overflowing when the terms differ by
    more than about 1e150 in size; L scales back by M's power.
    """
    if scene.dim != 2:
        raise ValueError("area_sum_2d_recursive requires a 2D scene")
    stack = scene.stack
    det = np.linalg.det(stack)
    i, j = np.nonzero(~np.tri(scene.m, dtype=bool))
    ratio = np.linalg.solve(stack[j], stack[i])
    exp = np.frexp(np.max(np.abs(ratio), axis=(1, 2)))[1]
    ratio = np.ldexp(ratio, -exp[:, None, None])
    scale = np.frexp(np.max(np.abs(stack), axis=(1, 2)))[1]
    unit_det = np.linalg.det(np.ldexp(stack, -scale[:, None, None]))
    prod = np.ldexp(unit_det[i] / unit_det[j], 2 * (scale[i] - scale[j] - exp))
    perims = np.ldexp(_perimeters(np.sum(ratio * ratio, axis=(1, 2)), prod), exp)
    return math.pi * float(np.sum(det)) + 4.0 * math.pi * float(det[j] @ perims)


def _perimeters(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """L / (4 pi) for ellipses with sigma_1^2 + sigma_2^2 = s and sigma_1 sigma_2 = p.

    The arithmetic-geometric mean on whole arrays (Abramowitz & Stegun
    17.6), started at n = 1 from a_1 = (sigma_1 + sigma_2)/2 =
    sqrt(s + 2p)/2, g_1 = sqrt(p) and c_1^2 = (s - 2p)/4, so the semi-axes
    are never formed: L = 4 pi/(a_N + g_N) (s/2 - sum_{n>=1} 2^(n-1) c_n^2).
    All elements step until the last meets c_n <= AGM_RTOL a_n; the extra
    steps of the others change them only in the last bits.
    """
    c = 0.5 * np.sqrt(np.maximum(s - 2.0 * p, 0.0))
    a, g, total, power = 0.5 * np.sqrt(s + 2.0 * p), np.sqrt(p), c * c, 1.0
    for _ in range(AGM_MAX_STEPS):
        if not np.any(c > AGM_RTOL * a):
            break
        a, g, c = 0.5 * (a + g), np.sqrt(a * g), 0.5 * (a - g)
        power *= 2.0
        total = total + power * c * c
    return (0.5 * s - total) / (a + g)


def _carlson_rg(x: float, y: float, z: float) -> float:
    """Carlson's R_G(x, y, z) for nonnegative arguments, at most one zero.

    2 R_G = z R_F - (x - z)(y - z) R_D / 3 + sqrt(xy/z) (DLMF 19.21.10),
    with z the middle argument so that every term is nonnegative.  R_F and
    R_D share one duplication loop, x <- (x + lambda)/4 with lambda =
    sqrt(xy) + sqrt(xz) + sqrt(yz), and end in their fifth-order Taylor
    polynomials (Carlson, Numer. Algorithms 10, 1995).
    """
    x, z, y = sorted((x, y, z))
    a0f, a0d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    qf = (3.0 * CARLSON_RTOL) ** (-1.0 / 6.0) * max(a0f - x, y - a0f)
    qd = (CARLSON_RTOL / 4.0) ** (-1.0 / 6.0) * max(abs(a0d - x), abs(a0d - y), abs(a0d - z))
    xn, yn, zn, af, ad = x, y, z, a0f, a0d
    scale, tail = 1.0, 0.0
    while scale * qf >= af or scale * qd >= ad:
        sx, sy, sz = math.sqrt(xn), math.sqrt(yn), math.sqrt(zn)
        lam = sx * sy + sx * sz + sy * sz
        tail += scale / (sz * (zn + lam))
        xn, yn, zn = 0.25 * (xn + lam), 0.25 * (yn + lam), 0.25 * (zn + lam)
        af, ad = 0.25 * (af + lam), 0.25 * (ad + lam)
        scale *= 0.25
    dx, dy = scale * (a0f - x) / af, scale * (a0f - y) / af
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(af)
    dx, dy = scale * (a0d - x) / ad, scale * (a0d - y) / ad
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * dz
    series = (
        1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
    )
    rd = scale * series / (ad * math.sqrt(ad)) + 3.0 * tail
    return 0.5 * (z * rf - (x - z) * (y - z) * rd / 3.0 + math.sqrt(x * y / z))


def _ellipsoid_area(a) -> float:
    """Surface area of the 3D ellipsoid M B: 4 pi |det M| R_G(sigma^-2) (DLMF 19.33.1).

    M is any nonsingular 3x3 array; the semi-axes sigma are its singular values.
    """
    sigma = np.linalg.svd(a, compute_uv=False)
    return 4.0 * math.pi * float(np.prod(sigma)) * _carlson_rg(*(1.0 / (sigma * sigma)).tolist())


def _cross_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(T, 9, 3) stacks of the maps u -> (P u) x q_c, q_c the columns of Q."""
    cols = np.swapaxes(p, 1, 2)[:, None, :, :]  # (T, 1, l, 3): columns of P
    qc = np.swapaxes(q, 1, 2)[:, :, None, :]  # (T, c, 1, 3): columns of Q
    return np.swapaxes(np.cross(cols, qc), 2, 3).reshape(len(p), 9, 3)


def _triple_terms(stack, inv, det, triples, quad) -> np.ndarray:
    """V(E_i, E_j, E_k) for rows (i, j, k) of `triples`, whitened by A_k.

    With a = P u, P = A_k^-1 A_i and Q = A_k^-1 A_j: sigma_1^2 + sigma_2^2
    is |[a]x Q|_F^2, the squared cross products a x q_c summed (no
    cancellation when a nearly parallels a column of Q), and
    sigma_1 sigma_2 = |det Q| |Q^-1 a| |a| = (det A_j / det A_k) |R u| |a|
    with R = A_j^-1 A_i.  One product of the stacked (15, 3) maps with the
    nodes gives all three per block; `_perimeters` takes L from them.  The
    integrand is even in u, so the nodes are `quadrature.hemisphere(quad)`.
    """
    half = quadrature.hemisphere(quad)
    out = np.empty(len(triples))
    block = max(1, TRIPLE_BLOCK // len(half.nodes))
    for start in range(0, len(triples), block):
        i, j, k = triples[start : start + block].T
        p, q = inv[k] @ stack[i], inv[k] @ stack[j]
        maps = np.concatenate([_cross_rows(p, q), p, inv[j] @ stack[i]], axis=1)
        x = (maps.reshape(-1, 3) @ half.nodes.T).reshape(len(i), 15, -1)
        x *= x
        s = np.sum(x[:, :9], axis=1)
        norms2 = np.sum(x[:, 9:12], axis=1) * np.sum(x[:, 12:], axis=1)
        prod = (det[j] / det[k])[:, None] * np.sqrt(norms2)
        # the rule's weights sum to 4 pi, so this is (2/3) det A_k mean_u L
        out[start : start + len(i)] = (2.0 / 3.0) * det[k] * (_perimeters(s, prod) @ half.weights)
    return out


def mixed_volumes_3d(scene: EllipsoidSum, quad=None) -> np.ndarray:
    """The mixed volumes V(E_i, E_j, E_k) of a 3D scene, a symmetric (m, m, m) array.

    The diagonal is V_B det A_i and the pair terms are closed forms (module
    docstring).  The C(m, 3) triple terms are sphere means taken on
    `quadrature.hemisphere(quad)`, `quad` being a 3D sphere rule (the
    default rule when None); only they depend on it.  Exact for m <= 2,
    for balls and for homothetic terms.

    A triple's sphere mean runs over the directions u of one term A_i, and
    its integrand is as smooth as A_k^-1 A_i and A_j^-1 A_i are well
    conditioned.  So the integrated term is the one whose worse pair
    condition number, read off the pair terms' singular values, is
    smallest; the value does not depend on which of the others whitens.
    """
    if scene.dim != 3:
        raise ValueError("mixed_volumes_3d requires a 3D scene")
    m, stack = scene.m, scene.stack
    det, inv = np.linalg.det(stack), np.linalg.inv(stack)
    vb = quadrature.unit_ball_volume(3)
    terms = np.zeros((m, m, m))
    terms[np.arange(m), np.arange(m), np.arange(m)] = vb * det
    if m >= 2:
        i, j = np.nonzero(~np.eye(m, dtype=bool))
        sv = np.linalg.svd(inv[i] @ stack[j], compute_uv=False)
        pairs = [vb * float(det[a]) * _carlson_rg(*row) for a, row in zip(i, (sv * sv).tolist())]
        for perm in ((i, i, j), (i, j, i), (j, i, i)):
            terms[perm] = pairs
    if m >= 3:
        cond = np.ones((m, m))
        cond[i, j] = sv[:, 0] / sv[:, 2]
        triples = np.array(list(itertools.combinations(range(m), 3)))
        a, b, c = triples.T
        cost = np.maximum(cond[[a, b, c], [b, c, a]], cond[[a, b, c], [c, a, b]])
        rolls = np.argmin(cost, axis=0)[:, None]
        roles = triples[np.arange(len(triples))[:, None], (rolls + np.arange(3)) % 3]
        quad = quadrature.default_quadrature(3) if quad is None else quad
        quadrature._check_dim(scene, quad)
        values = _triple_terms(stack, inv, det, roles, quad)
        for perm in itertools.permutations(triples.T):
            terms[perm] = values
    return terms


def volume_sum_3d_mixed(scene: EllipsoidSum, quad=None) -> float:
    """Volume of a 3D sum: the sum of all its mixed volumes (`mixed_volumes_3d`)."""
    return float(np.sum(mixed_volumes_3d(scene, quad)))


def volume_sum_3d_pair(a1: SpdMatrix, a2: SpdMatrix) -> float:
    """Exact volume of E_1 + E_2 in 3D.

    V_B det A_1 + 3 V(E_1, E_1, E_2) + 3 V(E_1, E_2, E_2) + V_B det A_2,
    every term closed.
    """
    if a1.dim != 3 or a2.dim != 3:
        raise ValueError("volume_sum_3d_pair requires 3x3 matrices")
    return volume_sum_3d_mixed(EllipsoidSum((a1, a2)))


def volume_sum_3d_bounds(scene: EllipsoidSum, quad) -> SteinerReport:
    """Volume of an m-fold 3D sum: mixed volumes, with Steiner's ellipsoid sandwich.

    Step k adds det A_k (area + mean-curvature integral) + V_B det A_k of
    A_k^-1 S_k, S_k the sum of the first k terms.  In mixed volumes,
    det A_k area = 3 sum_{i,j<k} V(E_i, E_j, E_k) and det A_k mean =
    3 sum_{i<k} V(E_i, E_k, E_k), so `exact_value` is the mixed volume.
    The bounds replace the area by the areas of A_k^-1 J_k and A_k^-1 O_k,
    J_k the inner John and O_k the direction-optimal outer ellipsoid of
    S_k: images of inner (outer) ellipsoids of S_k are inner (outer)
    ellipsoids of A_k^-1 S_k.  Those areas are closed forms
    (`_ellipsoid_area`); `quad` serves only the triple terms.
    """
    if scene.dim != 3:
        raise ValueError("volume_sum_3d_bounds requires a 3D scene")
    if scene.m < 3:
        raise ValueError("volume_sum_3d_bounds requires at least 3 ellipsoids")

    vb = quadrature.unit_ball_volume(3)
    terms = mixed_volumes_3d(scene, quad)
    exact = lower = upper = float(np.sum(terms[:2, :2, :2]))
    components = [
        {"step": 2, "volume_exact": exact, "volume_lower": lower, "volume_upper": upper}
    ]

    for k in range(2, scene.m):
        ak = scene.stack[k]
        det_k = float(np.linalg.det(ak))
        partial = scene.part(slice(k))

        area_exact = 3.0 * float(np.sum(terms[:k, :k, k])) / det_k
        mean = 3.0 * float(np.sum(terms[:k, k, k])) / det_k
        area_lo = _ellipsoid_area(np.linalg.solve(ak, bounds.best_inner_john(partial).entries))
        area_hi = _ellipsoid_area(np.linalg.solve(ak, bounds.minvol_outer(partial).entries))

        exact = float(np.sum(terms[: k + 1, : k + 1, : k + 1]))
        lower += det_k * (area_lo + mean) + vb * det_k
        upper += det_k * (area_hi + mean) + vb * det_k
        components.append(
            {
                "step": k + 1,
                "area_exact": area_exact,
                "area_lower": area_lo,
                "area_upper": area_hi,
                "mean_curvature_integral": mean,
                "volume_exact": exact,
                "volume_lower": lower,
                "volume_upper": upper,
            }
        )

    return SteinerReport(
        lower=lower, upper=upper, exact_value=exact, components=tuple(components)
    )
