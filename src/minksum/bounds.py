"""Inner and outer ellipsoidal bounds for Minkowski sums of ellipsoids.

Inner bounds: the plain sum A_sum = sum A_i (which touches the true
boundary in 2N points when m = 2) and the Kurzhanski-Valyi family
A_S = |P S^-1|, P = sum_i |A_i S|, |G| = (G^T G)^(1/2) (Kurzhanski & Valyi,
1997), all inside the sum.  S = A^-1 gives Chernousko's maximal-volume
F(A,B) = [A^2 + 2 A^2#B^2 + B^2]^(1/2); m >= 3 uses a fixed point in S,
reached by Anderson mixing of the geometric-mean step (Walker & Ni, 2011).

Outer bounds: A_gamma = (sum gamma_i A_i^2)^(1/2) = |G|, G the stacked
sqrt(gamma_i) A_i, with sum 1/gamma_i = 1 and gamma from the exact pair
optimality equation in beta, a trace heuristic, the direction family
A(l), or the fixed-point recursion for the minimal-volume member.

Both containments hold by theorem, so neither is re-checked at run time;
the test suite checks them in support form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, quadrature, steiner
from .geometry import EllipsoidSum
from .quadrature import unit_ball_volume
from .spd import SpdMatrix, _abs, _eigh, _inv_sqrt_raw, _spectral, _sym_part


# Stop and cap of the fixed-point recursion in minvol_outer.  On random
# N = 2, 3 scenes with m = 2..6 and condition numbers up to 3e3, a 1e-12
# stop is reached within 40 iterations (median 28); a rounding-level stop
# (1e-15) is never reached on some of them.
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_CAP = 200

# Stop, cap and mixing depth of the Kurzhanski-Valyi fixed point in
# john_inner_recursive.  With Anderson mixing of the last 4 iterates the
# stop is reached within 12 evaluations of P (median 7) on the test suite's
# 64 reference stacks, within 11 (median 8) on 60 N = 2, 3 scenes with
# m = 3..6 and every term's condition number in [1e7, 10^9.9], and within
# 17 (median 9) on 3,000 scenes with N = 2..4 and condition numbers up to
# 10^9.9; the plain iteration took up to 22, 23 and 23 (medians 18, 20, 20).
_KV_TOL = 1e-6
_KV_CAP = 100
_KV_DEPTH = 3


class BoundsError(RuntimeError):
    """A computed bound violated a guaranteed inequality."""


@dataclass(frozen=True)
class BoundReport:
    """Volume bounds and the bounding matrices that produced them."""

    inner_sum: SpdMatrix
    inner_john: SpdMatrix
    outer_optimal: SpdMatrix
    outer_heuristic: SpdMatrix
    lower_volume: float
    upper_volume: float
    bm_chain: tuple[float, float, float, float]

    def to_json(self) -> dict:
        return {
            "inner_sum_det": self.inner_sum.det(),
            "inner_john_det": self.inner_john.det(),
            "outer_optimal_det": self.outer_optimal.det(),
            "outer_heuristic_det": self.outer_heuristic.det(),
            "lower_volume": self.lower_volume,
            "upper_volume": self.upper_volume,
            "bm_chain": list(self.bm_chain),
        }


def inner_sum_matrix(scene: EllipsoidSum) -> SpdMatrix:
    """A_sum = sum of the shape matrices; E_{A_sum} lies inside the sum."""
    return SpdMatrix(np.sum(scene.stack, axis=0))


def containment_check(candidate: SpdMatrix, scene: EllipsoidSum, resolution=None) -> bool:
    """True iff E_candidate is contained in the Minkowski sum.

    No bound here calls it: they are contained by theorem.  Containment is
    equivalent to |A_c v| <= sum_j |A_j v| for all v.  The max violation
    is searched by `geometry.max_support_gap` on the sphere rule of
    `resolution` (720 in 2D, 64 otherwise), the body giving |A_c n|
    and its gradient A_c^2 n / |A_c n|, against a 1e-9 relative slack.
    Both sides are even in n, so the search runs on `quadrature.hemisphere`
    of the rule: for an even resolution one node per antipodal pair, so the
    5 ascents start from 5 distinct directions.
    """
    if candidate.dim != scene.dim:
        raise ValueError("dimension mismatch")
    if resolution is None:
        resolution = 720 if scene.dim == 2 else 64
    nodes = quadrature.hemisphere(quadrature.build_quadrature(scene.dim, resolution)).nodes
    h = geometry.support_values(scene, nodes)
    c = candidate.entries
    c2 = c @ c

    def body(ns):
        s = np.linalg.norm(ns @ c, axis=1)
        return s, ns @ c2 / s[:, None]

    return geometry.max_support_gap(scene, nodes, h, body) <= 1e-9 * float(np.max(h))


def contact_points(a1: SpdMatrix, a2: SpdMatrix) -> np.ndarray:
    """The 2N points where E_{A1+A2} touches the boundary of E_1 + E_2.

    They sit at the eigenvector directions of A1^-1 A2, where the support
    of the inner sum ellipsoid equals the support of the Minkowski sum.
    """
    if a1.dim != a2.dim:
        raise ValueError("dimension mismatch")
    s_inv = _inv_sqrt_raw(a1.entries)
    w = _eigh(_sym_part(s_inv @ a2.entries @ s_inv))[1]
    vs = s_inv @ w
    vs /= np.linalg.norm(vs, axis=0)
    asum = a1.entries + a2.entries
    pts = []
    for j in range(a1.dim):
        v = vs[:, j]
        x = asum @ asum @ v / np.linalg.norm(asum @ v)
        pts.append(x)
        pts.append(-x)
    return np.array(pts)


def _kv_sum(stack: np.ndarray, t: np.ndarray) -> np.ndarray:
    """P = sum_i |A_i T^-1|, with T^-1 A_i from a solve (T and the A_i are symmetric)."""
    return np.sum(_abs(np.swapaxes(np.linalg.solve(t, stack), -1, -2)), axis=0)


def _kv(stack: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Kurzhanski-Valyi inner matrix |P T| for the family parameter S = T^-1.

    P = sum_i |A_i S|, and |P S^-1 v| <= sum_i |A_i v| for every v, so
    the ellipsoid lies inside the sum whatever S is.  |G| comes from the
    SVD, so no term is squared.
    """
    return _abs(_kv_sum(stack, t) @ t)


def john_inner_pair(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Maximal-volume inner ellipsoid of E_A + E_B (Chernousko's formula).

    F(A, B) = [A^2 + 2 A^2#B^2 + B^2]^(1/2) = |(I + |B A^-1|) A|, the
    Kurzhanski-Valyi member at S = A^-1.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return SpdMatrix(_kv(np.stack([a.entries, b.entries]), a.entries))


def _kv_fixed_point(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape T of the Kurzhanski-Valyi member whose P = sum_i |A_i T^-1| is I, and that P.

    The map is the geometric-mean step T <- |P^(1/2) T|, from T = sum A_i,
    until ||P - I||_2 <= _KV_TOL or P has been evaluated _KV_CAP times.
    The eigenvalues lam of P give both: ||P - I||_2 = max |lam - 1|, and
    P^(1/2) = V diag(sqrt(lam)) V^T, whose bits do not depend on the
    eigenvector signs.  Each step is Anderson-mixed (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011) with the last _KV_DEPTH + 1 iterates: the
    combination of their images whose combined residual |P^(1/2) T| - T is
    least in the least-squares sense.  A mixed T that is not positive
    definite is replaced by the plain step, and the history is cleared.
    Mixing cuts the median number of evaluations from 18 to 7 (counts at
    _KV_CAP).  The returned P is `_kv_sum(stack, T)` at the returned T,
    at the cap too.
    """
    t = np.sum(stack, axis=0)
    p = _kv_sum(stack, t)
    images, residuals = [], []
    for _ in range(_KV_CAP - 1):
        lam, V = np.linalg.eigh(p)
        if np.max(np.abs(lam - 1.0)) <= _KV_TOL:
            break
        image = _abs(_spectral(V, np.sqrt(np.clip(lam, 0.0, None))) @ t)
        images = images[-_KV_DEPTH:] + [image.ravel()]
        residuals = residuals[-_KV_DEPTH:] + [(image - t).ravel()]
        t = image
        if len(images) > 1:
            weights = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1], rcond=None)[0]
            mixed = _sym_part((images[-1] - weights @ np.diff(images, axis=0)).reshape(t.shape))
            if np.linalg.eigvalsh(mixed)[0] > 0.0:
                t = mixed
            else:
                images, residuals = [], []
        p = _kv_sum(stack, t)
    return t, p


def john_inner_recursive(scene: EllipsoidSum) -> SpdMatrix:
    """Kurzhanski-Valyi inner ellipsoid for m >= 3 terms.

    The member |P T| at the fixed point of `_kv_fixed_point`; at m = 2
    that point is F(A, B).  It lies inside the sum by theorem, as the plain
    sum does.  Only "best found" is claimed, not optimality.
    """
    if scene.m < 3:
        raise ValueError("john_inner_recursive requires at least 3 ellipsoids")
    t, p = _kv_fixed_point(scene.stack)
    # The plain sum is a valid inner candidate, so it participates in the max.
    fixed = _abs(p @ t)
    return SpdMatrix(max([fixed, np.sum(scene.stack, axis=0)], key=np.linalg.det))


def kv_inner_family(a: SpdMatrix, b: SpdMatrix, s: SpdMatrix) -> SpdMatrix:
    """Kurzhanski-Valyi inner ellipsoid for the SPD family parameter S.

    S_hat^2 = S^-1 [(S A^2 S)^(1/2) + (S B^2 S)^(1/2)]^2 S^-1, i.e.
    S_hat = |(|A S| + |B S|) S^-1|; the choices S = A^-1 and S = B^-1 both
    recover F(A, B).
    """
    if not (a.dim == b.dim == s.dim):
        raise ValueError("dimension mismatch")
    return SpdMatrix(_kv(np.stack([a.entries, b.entries]), np.linalg.inv(s.entries)))


def outer_gamma_matrix(scene: EllipsoidSum, gammas) -> SpdMatrix:
    """Outer ellipsoid A_gamma = (sum gamma_i A_i^2)^(1/2) = |G|, with no term squared.

    G stacks the sqrt(gamma_i) A_i into an mN x N matrix.  Requires
    gamma_i > 0 with sum 1/gamma_i = 1, which guarantees containment of
    the Minkowski sum by Cauchy-Schwarz.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (scene.m,):
        raise ValueError(f"need {scene.m} gamma values")
    if np.any(gammas <= 0.0):
        raise ValueError("gamma values must be positive")
    if abs(np.sum(1.0 / gammas) - 1.0) > 1e-12:
        raise ValueError("gamma values must satisfy sum 1/gamma_i = 1")
    if scene.m == 1:
        return scene.terms[0]
    g = np.sqrt(gammas)[:, None, None] * scene.stack
    return SpdMatrix(_abs(g.reshape(-1, scene.dim)))


def _pair_spectrum(a1: SpdMatrix, a2: SpdMatrix) -> np.ndarray:
    """Squared singular values of A1^-1 A2, ascending."""
    return np.linalg.svd(np.linalg.solve(a1.entries, a2.entries), compute_uv=False)[::-1] ** 2


def beta_residual(beta: float, mu: np.ndarray) -> float:
    """Residual of the pair optimality equation sum (1 - b^2 mu)/(1 + b mu)."""
    return float(np.sum((1.0 - beta**2 * mu) / (1.0 + beta * mu)))


def optimal_beta(a1: SpdMatrix, a2: SpdMatrix) -> float:
    """Unique positive root of the pair optimality equation.

    mu_j are the squared singular values of A1^-1 A2.  The residual is
    strictly decreasing in beta, each term vanishing at beta = 1/sqrt(mu_j),
    so [1/sqrt(mu_max), 1/sqrt(mu_min)] brackets the root.  Bisection to
    1e-14 on beta.
    """
    mu = _pair_spectrum(a1, a2)
    lo = 1.0 / math.sqrt(mu[-1])
    hi = 1.0 / math.sqrt(mu[0])
    if hi - lo < 1e-16:
        return 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if beta_residual(mid, mu) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def gammas_from_beta(beta: float) -> tuple[float, float]:
    """Pair gamma values gamma_1 = 1 + 1/beta, gamma_2 = 1 + beta."""
    return 1.0 + 1.0 / beta, 1.0 + beta


def heuristic_gammas(scene: EllipsoidSum) -> np.ndarray:
    """Trace heuristic gamma'_i = sum_j sqrt(tr A_j^2) / sqrt(tr A_i^2).

    Satisfies the constraint sum 1/gamma'_i = 1 identically.
    """
    roots = np.sqrt(np.trace(scene.squares, axis1=1, axis2=2))
    return float(np.sum(roots)) / roots


def direction_outer_matrix(scene: EllipsoidSum, l) -> SpdMatrix:
    """A(l) = (sum |A_j l|)^(1/2) (sum A_i^2/|A_i l|)^(1/2), the |G| at direction_gammas."""
    return outer_gamma_matrix(scene, direction_gammas(scene, l))


def direction_gammas(scene: EllipsoidSum, l) -> np.ndarray:
    """Optimal gamma_i for direction l: 1/gamma_i = |A_i l| / sum_j |A_j l|."""
    v = scene.stack @ np.asarray(l, dtype=float)
    norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])  # the sums np.linalg.norm takes
    return float(np.sum(norms)) / norms


def minvol_outer(scene: EllipsoidSum) -> SpdMatrix:
    """Minimal-volume outer ellipsoid of the family (sum gamma_i A_i^2)^(1/2).

    With w_i = 1/gamma_i on the simplex, the minimizer of log det sum
    A_i^2 / w_i satisfies w_i proportional to sqrt(tr(X^-1 A_i^2)), where
    X = sum A_j^2 / w_j (A. Halder, IEEE CDC 2018).  That map is iterated
    from the trace heuristic until no weight moves by more than
    _FIXED_POINT_TOL, or _FIXED_POINT_CAP times, or until X is singular
    or some tr(X^-1 A_i^2) is not positive in floating point; the last
    valid weights are kept.  The result never has a larger determinant
    than the heuristic outer ellipsoid.
    """
    return _outer_pair(scene)[0]


def _outer_pair(scene: EllipsoidSum) -> tuple[SpdMatrix, SpdMatrix]:
    """`minvol_outer` and the heuristic outer ellipsoid it is compared with."""
    heuristic = heuristic_gammas(scene)
    w = 1.0 / heuristic
    # X squares the terms, but any weights on the simplex give a valid |G|
    # bound, so that can cost optimality only.  A QR-factored loop matched
    # this one's log det within 4e-14 and took about 1.6 times as long.
    for _ in range(_FIXED_POINT_CAP):
        try:
            x_inv = np.linalg.inv(np.sum(scene.squares / w[:, None, None], axis=0))
        except np.linalg.LinAlgError:
            break
        traces = np.trace(x_inv @ scene.squares, axis1=1, axis2=2)
        if not np.all(traces > 0.0):
            break
        new = np.sqrt(traces)
        new /= np.sum(new)
        moved = float(np.max(np.abs(new - w)))
        w = new
        if moved <= _FIXED_POINT_TOL:
            break
    heuristic_outer = outer_gamma_matrix(scene, heuristic)
    pair = (outer_gamma_matrix(scene, 1.0 / w), heuristic_outer)
    outer = min(pair, key=SpdMatrix.det)  # the fixed point's unless the heuristic's is smaller
    return outer, heuristic_outer


def best_inner_john(scene: EllipsoidSum) -> SpdMatrix:
    """Best available John-style inner matrix for any m."""
    if scene.m == 1:
        return scene.terms[0]
    if scene.m == 2:
        return john_inner_pair(*scene.terms)
    return john_inner_recursive(scene)


def _bm_chain(scene: EllipsoidSum, vol: float, inner_john: SpdMatrix, inner_sum: SpdMatrix):
    """(vol, V_B det John, V_B det A_sum, sum V_B det A_i), each to the 1/N."""
    dim = scene.dim
    vb = unit_ball_volume(dim)
    return (
        vol ** (1.0 / dim),
        (vb * inner_john.det()) ** (1.0 / dim),
        (vb * inner_sum.det()) ** (1.0 / dim),
        float(sum((vb * float(d)) ** (1.0 / dim) for d in np.linalg.det(scene.stack))),
    )


def _volume_of_record(scene: EllipsoidSum, quad) -> float:
    """The volume the bounds are checked against (see `volume_bounds`)."""
    if scene.m == 1:
        return unit_ball_volume(scene.dim) * scene.terms[0].det()
    if scene.dim == 2:
        return steiner.area_sum_2d_recursive(scene)
    if scene.dim == 3:
        return steiner.volume_sum_3d_mixed(scene, quad)
    if quad is None:
        quad = quadrature.default_quadrature(scene.dim)
    return quadrature.volume_term_charts(scene, quad)


def brunn_minkowski_chain(a1: SpdMatrix, a2: SpdMatrix, quad=None):
    """The four-link sharpened Brunn-Minkowski chain for a pair (descending).

    (true volume)^(1/N) >= (V_B det F)^(1/N) >= (V_B det(A1+A2))^(1/N)
    >= Vol(E1)^(1/N) + Vol(E2)^(1/N).
    """
    scene = EllipsoidSum((a1, a2))
    vol = _volume_of_record(scene, quad)
    return _bm_chain(scene, vol, john_inner_pair(a1, a2), inner_sum_matrix(scene))


def volume_bounds(scene: EllipsoidSum, quad=None) -> BoundReport:
    """Full lower/upper volume bound report for a scene.

    Lower bound: best of det A_sum and the John candidate.  Upper bound:
    best of the fixed-point optimal and trace-heuristic outer ellipsoids.
    The sandwich is checked against the volume of record: the exact area
    for N = 2, V_B det A for one term, the mixed volumes for N = 3
    (`steiner.volume_sum_3d_mixed`: closed for m = 2, with the triple
    terms on the upper hemisphere of `quad` for m >= 3), and for N >= 4
    the per-term chart quadrature with the node count of `quad`
    (`volume_term_charts`).  So `quad` only matters for N = 3 with m >= 3
    and for N >= 4 with m >= 2.  The report also carries the
    Brunn-Minkowski comparison chain, whose first link is that volume to
    the 1/N.
    """
    vb = unit_ball_volume(scene.dim)

    inner_sum = inner_sum_matrix(scene)
    inner_john = best_inner_john(scene)
    outer_opt, outer_heur = _outer_pair(scene)

    lower = vb * max(inner_sum.det(), inner_john.det())
    upper = vb * outer_opt.det()  # never above outer_heur's: minvol_outer keeps the better

    vol = _volume_of_record(scene, quad)
    slack = 1e-9 * max(vol, 1.0)
    if not (lower <= vol + slack and vol <= upper + slack):
        raise BoundsError(
            f"bound sandwich violated: {lower} <= {vol} <= {upper} failed"
        )
    return BoundReport(
        inner_sum=inner_sum,
        inner_john=inner_john,
        outer_optimal=outer_opt,
        outer_heuristic=outer_heur,
        lower_volume=lower,
        upper_volume=upper,
        bm_chain=_bm_chain(scene, vol, inner_john, inner_sum),
    )
