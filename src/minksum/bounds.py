"""Inner and outer ellipsoidal bounds for Minkowski sums of ellipsoids.

Inner bounds: the plain sum A_sum = sum A_i (which touches the true
boundary in 2N points when m = 2), Chernousko's maximal-volume inner
ellipsoid F(A,B) = [A^2 + 2 A^2#B^2 + B^2]^(1/2) for pairs, recursive
F-composites for m >= 3, and the Kurzhanski-Valyi one-parameter family.

Outer bounds: the family A_gamma = (sum gamma_i A_i^2)^(1/2) with
sum 1/gamma_i = 1, with gamma chosen by the exact pair optimality
equation in beta, by a trace heuristic, by the direction family A(l), or
by the fixed-point recursion for the minimal-volume member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, quadrature, steiner
from .geometry import EllipsoidSum
from .quadrature import unit_ball_volume
from .spd import SpdError, SpdMatrix, _eigh, _geometric_mean_raw
from .spd import _inv_sqrt_raw, _sqrt_raw, _sym_part


# Stop and cap of the fixed-point recursion in minvol_outer.  On random
# N = 2, 3 scenes with m = 2..6 and condition numbers up to 3e3, a 1e-12
# stop is reached within 40 iterations (median 28); a rounding-level stop
# (1e-15) is never reached on some of them.
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_CAP = 200


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

    Containment is equivalent to |A_c v| <= sum_j |A_j v| for all v; the
    max violation is searched on a sphere grid with deterministic local
    refinement and compared against a small relative slack.
    """
    if candidate.dim != scene.dim:
        raise ValueError("dimension mismatch")
    if resolution is None:
        resolution = 720 if scene.dim == 2 else 64
    nodes = quadrature.build_quadrature(scene.dim, resolution).nodes
    h = geometry.support_values(scene, nodes)
    c = candidate.entries
    c2 = c @ c
    gap = geometry.max_support_gap(
        scene,
        nodes,
        h,
        lambda ns: np.linalg.norm(ns @ c, axis=1),
        lambda ns: ns @ c2 / np.linalg.norm(ns @ c, axis=1, keepdims=True),
    )
    return gap <= 1e-9 * float(np.max(h))


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


def _john_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F(A, B) of two exactly symmetric arrays; SpdError if it is not finite."""
    p = _sym_part(a @ a)
    q = _sym_part(b @ b)
    f = _sqrt_raw(p + 2.0 * _geometric_mean_raw(p, q) + q)
    if not np.all(np.isfinite(f)):
        raise SpdError("John composite is not finite; the terms are too ill-conditioned")
    return f


def john_inner_pair(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Maximal-volume inner ellipsoid of E_A + E_B (Chernousko's formula)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return SpdMatrix(_john_pair(a.entries, b.entries))


def _bracketings(mats: np.ndarray) -> list[np.ndarray]:
    """All F-composites over distinct binary bracketing orders, memoised by index subset."""
    memo = {(i,): [a] for i, a in enumerate(mats)}

    def composites(subset):
        if subset not in memo:
            out = []
            for size in range(1, len(subset)):
                for left in itertools.combinations(subset, size):
                    if left[0] != subset[0]:
                        continue  # fix the first element on the left to avoid mirror duplicates
                    right = tuple(i for i in subset if i not in left)
                    for lt in composites(left):
                        for rt in composites(right):
                            out.append(_john_pair(lt, rt))
            memo[subset] = out
        return memo[subset]

    return composites(tuple(range(len(mats))))


def john_inner_recursive(scene: EllipsoidSum) -> SpdMatrix:
    """Best recursive F-composite inner ellipsoid for m >= 3 terms.

    All binary bracketing orders are evaluated for m <= 4; beyond that a
    greedy largest-determinant pairing is used.  Only "best found" is
    claimed, not optimality.  No pair composite is computed twice: the
    bracketings share sub-composites, and each greedy round evaluates
    only the pairs that involve the previous round's composite.
    """
    if scene.m < 3:
        raise ValueError("john_inner_recursive requires at least 3 ellipsoids")
    # The plain sum is a valid inner candidate and can beat every
    # F-composite, so it participates in the max.
    det = np.linalg.det
    plain = np.sum(scene.stack, axis=0)
    if scene.m <= 4:
        best = max([plain, *_bracketings(scene.stack)], key=det)
    else:
        # pool entries are (label, matrix); a composite is labelled by its parts' labels
        pool = list(enumerate(scene.stack))
        pairs = {}
        while len(pool) > 1:
            best_pair, best_det = None, -np.inf
            for i in range(len(pool) - 1):
                for j in range(i + 1, len(pool)):
                    key = (pool[i][0], pool[j][0])
                    if key not in pairs:
                        f = _john_pair(pool[i][1], pool[j][1])
                        pairs[key] = (f, det(f))
                    if pairs[key][1] > best_det:
                        best_pair, best_det = (i, j, key), pairs[key][1]
            i, j, key = best_pair
            pool = [p for k, p in enumerate(pool) if k not in (i, j)] + [(key, pairs[key][0])]
        best = max([pool[0][1], plain], key=det)
    best = SpdMatrix(best)
    if not containment_check(best, scene):
        raise BoundsError("recursive John composite failed the containment check")
    return best


def kv_inner_family(a: SpdMatrix, b: SpdMatrix, s: SpdMatrix) -> SpdMatrix:
    """Kurzhanski-Valyi inner ellipsoid for the SPD family parameter S.

    S_hat^2 = S^-1 [(S A^2 S)^(1/2) + (S B^2 S)^(1/2)]^2 S^-1; the choices
    S = A^-1 and S = B^-1 both recover F(A, B).
    """
    if not (a.dim == b.dim == s.dim):
        raise ValueError("dimension mismatch")
    sm = s.entries
    inner = _sqrt_raw(sm @ a.entries @ a.entries @ sm) + _sqrt_raw(
        sm @ b.entries @ b.entries @ sm
    )
    s_inv = np.linalg.inv(sm)
    return SpdMatrix(_sqrt_raw(s_inv @ inner @ inner @ s_inv))


def outer_gamma_matrix(scene: EllipsoidSum, gammas) -> SpdMatrix:
    """Outer ellipsoid A_gamma = (sum gamma_i A_i^2)^(1/2).

    Requires gamma_i > 0 with sum 1/gamma_i = 1, which guarantees
    containment of the Minkowski sum by Cauchy-Schwarz.
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
    return SpdMatrix(_sqrt_raw(np.sum(gammas[:, None, None] * scene.squares, axis=0)))


def _pair_spectrum(a1: SpdMatrix, a2: SpdMatrix) -> np.ndarray:
    """Squared singular values of A1^-1 A2, i.e. eigenvalues of A1^-1 A2^2 A1^-1."""
    inv = np.linalg.inv(a1.entries)
    return _eigh(_sym_part(inv @ a2.entries @ a2.entries @ inv))[0]


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


def _term_norms(scene: EllipsoidSum, l) -> np.ndarray:
    """|A_i l| for every term, as m dot products (the sums np.linalg.norm takes)."""
    v = scene.stack @ np.asarray(l, dtype=float)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def direction_outer_matrix(scene: EllipsoidSum, l) -> SpdMatrix:
    """Outer matrix A(l) = (sum |A_j l|)^(1/2) (sum A_i^2/|A_i l|)^(1/2)."""
    r = _term_norms(scene, l)
    mix = np.sum(scene.squares / r[:, None, None], axis=0)
    return SpdMatrix(_sqrt_raw(float(np.sum(r)) * mix))


def direction_gammas(scene: EllipsoidSum, l) -> np.ndarray:
    """Optimal gamma_i for direction l: 1/gamma_i = |A_i l| / sum_j |A_j l|."""
    norms = _term_norms(scene, l)
    return float(np.sum(norms)) / norms


def minvol_outer(scene: EllipsoidSum) -> SpdMatrix:
    """Minimal-volume outer ellipsoid of the family (sum gamma_i A_i^2)^(1/2).

    With w_i = 1/gamma_i on the simplex, the minimizer of log det sum
    A_i^2 / w_i satisfies w_i proportional to sqrt(tr(X^-1 A_i^2)), where
    X = sum A_j^2 / w_j (A. Halder, IEEE CDC 2018).  That map is iterated
    from the trace heuristic until no weight moves by more than
    _FIXED_POINT_TOL, or _FIXED_POINT_CAP times.  The result never has a
    larger determinant than the heuristic outer ellipsoid.
    """
    heuristic = heuristic_gammas(scene)
    w = 1.0 / heuristic
    for _ in range(_FIXED_POINT_CAP):
        x_inv = np.linalg.inv(np.sum(scene.squares / w[:, None, None], axis=0))
        new = np.sqrt(np.trace(x_inv @ scene.squares, axis1=1, axis2=2))
        new /= np.sum(new)
        moved = float(np.max(np.abs(new - w)))
        w = new
        if moved <= _FIXED_POINT_TOL:
            break
    outer = outer_gamma_matrix(scene, 1.0 / w)
    fallback = outer_gamma_matrix(scene, heuristic)
    if fallback.det() < outer.det():
        outer = fallback

    # Containment is guaranteed analytically; spot-check on a grid.
    dim = scene.dim
    if dim == 2:
        theta = np.pi * np.arange(360) / 360.0  # support functions are even
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        nodes = quadrature.build_quadrature(dim, 32 if dim == 3 else 8).nodes
    h = geometry.support_values(scene, nodes)
    gap = h - np.linalg.norm(nodes @ outer.entries, axis=1)
    if float(np.max(gap)) > 1e-9 * float(np.max(h)):
        raise BoundsError("outer ellipsoid failed containment")
    return outer


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
    if scene.dim == 2:
        return steiner.area_sum_2d_recursive(scene)
    if scene.m == 1:
        return unit_ball_volume(scene.dim) * scene.terms[0].det()
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
    outer_opt = minvol_outer(scene)
    outer_heur = outer_gamma_matrix(scene, heuristic_gammas(scene))

    lower = vb * max(inner_sum.det(), inner_john.det())
    upper = vb * min(outer_opt.det(), outer_heur.det())

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
