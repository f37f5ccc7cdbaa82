"""Exact areas and volume bounds for ellipsoid sums via Steiner's formula.

Offsetting a convex body K by a ball of radius r expands its volume by
quermassintegral terms; since E_1 + E_2 = A_2 (A_2^-1 E_1 + B^N), the
offset view turns pairwise sums into closed-form expressions.  In 2D,
perimeter additivity makes the m-fold area exactly computable by
recursion.  In 3D the pairwise volume is exact, and for m >= 3 the
surface-area term of a partial sum is sandwiched between the areas of its
inner and outer bounding ellipsoids (projection-average monotonicity),
while this package can also evaluate it exactly by quadrature.

The complete elliptic integral behind every ellipse perimeter is computed
with the arithmetic-geometric mean in plain `math`, so this module (and
the CLI) needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, quadrature
from .geometry import EllipsoidSum, transform_scene
from .spd import SpdMatrix, _sqrt_raw

# The AGM stops once c_n <= AGM_RTOL * a_n, or after AGM_MAX_STEPS steps.
# The stop is relative: a_n and g_n can stay one ulp apart forever, so an
# absolute stop on c_n never ends for some moduli.
AGM_RTOL = 1e-15
AGM_MAX_STEPS = 40


@dataclass(frozen=True)
class SteinerReport:
    """Exact value (when available) and lower/upper volume bounds."""

    lower: float
    upper: float
    exact_value: float | None = None
    components: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "exact_value": self.exact_value,
            "lower": self.lower,
            "upper": self.upper,
            "components": [dict(c) for c in self.components],
        }


def elliptic_E(x: float) -> float:
    """Complete elliptic integral E(x) = int_0^(pi/2) sqrt(1 - x^2 sin^2 t) dt.

    Arithmetic-geometric mean (Abramowitz & Stegun 17.6): a_0 = 1,
    g_0 = sqrt(1 - x^2), c_0 = x, then a_{n+1} = (a_n + g_n)/2,
    g_{n+1} = sqrt(a_n g_n), c_{n+1} = (a_n - g_n)/2, and
    E = pi/(a_N + g_N) * (1 - sum_n 2^(n-1) c_n^2).  The n = 0 part
    1 - x^2/2 is formed as (1 + g_0^2)/2, which keeps full precision as
    x -> 1.  Convergence is quadratic; relative error stays below 1e-14.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("elliptic modulus must lie in [0, 1]")
    if x == 1.0:  # g_0 = 0: the means would never meet
        return 1.0
    g2 = (1.0 - x) * (1.0 + x)
    a, g, c = 1.0, math.sqrt(g2), x
    power, total = 0.5, 0.0
    for _ in range(AGM_MAX_STEPS):
        if c <= AGM_RTOL * a:
            break
        a, g, c = 0.5 * (a + g), math.sqrt(a * g), 0.5 * (a - g)
        power *= 2.0
        total += power * c * c
    return math.pi / (a + g) * (0.5 * (1.0 + g2) - total)


def _ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of an ellipse with semi-axes a, b (any order)."""
    hi, lo = max(a, b), min(a, b)
    return 4.0 * hi * elliptic_E(math.sqrt(1.0 - (lo / hi) ** 2))


def _singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values, descending."""
    return np.linalg.svd(mat, compute_uv=False)


def area_sum_2d_pair(a1: SpdMatrix, a2: SpdMatrix) -> float:
    """Exact area of E_1 + E_2 in the plane.

    pi (det A1 + det A2) + L(d(A2^-1 E_1)) det A2, where the scaled
    ellipse has semi-axes equal to the singular values of A2^-1 A1.
    """
    if a1.dim != 2 or a2.dim != 2:
        raise ValueError("area_sum_2d_pair requires 2x2 matrices")
    lam = _singular_values(np.linalg.solve(a2.entries, a1.entries))
    return (
        math.pi * (a1.det() + a2.det())
        + a2.det() * _ellipse_perimeter(lam[0], lam[1])
    )


def area_sum_2d_recursive(scene: EllipsoidSum) -> float:
    """Exact area of an m-fold sum of ellipses via perimeter additivity.

    A(S_{k+1}) = A(S_k) + det A_{k+1} L(d(A_{k+1}^-1 S_k)) + A(E_{k+1}),
    and the scaled perimeter splits into per-ellipse elliptic integrals.
    """
    if scene.dim != 2:
        raise ValueError("area_sum_2d_recursive requires a 2D scene")
    mats = scene.stack
    area = math.pi * float(np.linalg.det(mats[0]))
    for k in range(1, len(mats)):
        ak = mats[k]
        det_k = float(np.linalg.det(ak))
        perim = 0.0
        for prev in mats[:k]:
            lam = _singular_values(np.linalg.solve(ak, prev))
            perim += _ellipse_perimeter(lam[0], lam[1])
        area += det_k * perim + math.pi * det_k
    return area


def _scaled_term(outer_inv_src: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Shape matrix of A^-1 E_B, i.e. (A^-1 B^2 A^-1)^(1/2)."""
    inv = np.linalg.inv(outer_inv_src)
    return _sqrt_raw(inv @ inner @ inner @ inv)


def volume_sum_3d_pair(a1: SpdMatrix, a2: SpdMatrix, quad) -> float:
    """Exact volume of E_1 + E_2 in 3D via the unit offset of A2^-1 E_1."""
    if a1.dim != 3 or a2.dim != 3:
        raise ValueError("volume_sum_3d_pair requires 3x3 matrices")
    vb = quadrature.unit_ball_volume(3)
    scaled = EllipsoidSum.from_matrices([_scaled_term(a2.entries, a1.entries)])
    area = quadrature.surface_area(scaled, quad)
    mean = quadrature.mean_curvature_integral(scaled, quad)
    return vb * a1.det() + a2.det() * (area + mean) + vb * a2.det()


def volume_sum_3d_bounds(scene: EllipsoidSum, quad) -> SteinerReport:
    """Volume of an m-fold 3D sum: exact by quadrature, bounded by ellipsoids.

    Each recursion step adds det A_k (area + mean-curvature integral) of
    the rescaled partial sum.  The mean-curvature term is additive and
    exact; the area term is bracketed by the areas of the inner John and
    direction-optimal outer ellipsoids, and also evaluated exactly by the
    Gauss-map quadrature to report how tight that sandwich is.
    """
    if scene.dim != 3:
        raise ValueError("volume_sum_3d_bounds requires a 3D scene")
    if scene.m < 3:
        raise ValueError("volume_sum_3d_bounds requires at least 3 ellipsoids")

    vb = quadrature.unit_ball_volume(3)
    exact = lower = upper = volume_sum_3d_pair(scene.terms[0], scene.terms[1], quad)
    components = [
        {"step": 2, "volume_exact": exact, "volume_lower": lower, "volume_upper": upper}
    ]

    for k in range(2, scene.m):
        ak = scene.stack[k]
        det_k = float(np.linalg.det(ak))
        partial = EllipsoidSum(scene.terms[:k])
        scaled = transform_scene(partial, np.linalg.inv(ak))

        mean = quadrature.mean_curvature_integral(scaled, quad)
        area_exact = quadrature.surface_area(scaled, quad)

        area_lo = quadrature.surface_area(EllipsoidSum((bounds.best_inner_john(scaled),)), quad)
        area_hi = quadrature.surface_area(EllipsoidSum((bounds.minvol_outer(scaled),)), quad)

        term_exact = det_k * (area_exact + mean) + vb * det_k
        exact += term_exact
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
