"""Brute-force validation oracles: Monte-Carlo volume, polyline perimeter.

The Monte-Carlo volume works for every N; the perimeter needs N = 2.

These estimators are intentionally independent of the closed-form paths
they validate: Monte-Carlo membership uses only the term matrices and the
inner and outer bound ellipsoids, never the boundary or quadrature code.
Sampling is batched with per-batch substreams derived from (seed, batch
index), so results do not depend on batch scheduling and are bitwise
reproducible.

Membership is the gauge test x in sum E_i iff
gamma(x) = max_n x.n / h(n) <= 1, with h(n) = sum_i |A_i n|.  For a
normal n, the step n' = H^-1 x with H = sum_i A_i^2 / |A_i n| writes
x = sum_i A_i^2 n' / |A_i n|, whose i-th term lies in E_i when
|A_i n'| <= |A_i n|; so max_i |A_i n'| / |A_i n| <= 1 certifies that x is
inside.  x.n' > h(n') certifies that x is outside.  The step is the
majorise-minimise (iteratively reweighted least squares) iteration for
min h(n) subject to x.n = 1 (Hunter & Lange, Am. Stat. 2004), so both
certificates tighten as it repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, geometry
from .geometry import EllipsoidSum

_BATCH = 1 << 15
_CAP = 100


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo volume estimate with its binomial standard error.

    `ambiguous` counts the samples that the gauge test left undecided
    after _CAP steps; they are counted as inside.
    """

    value: float
    std_error: float
    samples: int
    seed: int
    ambiguous: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "ambiguous": self.ambiguous,
        }


def _gauge_test(stack: np.ndarray, x: np.ndarray, n: np.ndarray) -> tuple[int, int]:
    """(inside, undecided) counts for rows x, starting from normals n.

    Each row stops at the first step that certifies it inside or outside
    (module docstring); rows still open after _CAP steps are undecided.
    """
    m, dim, _ = stack.shape
    sq = (stack @ stack).reshape(m, dim * dim)
    r = np.linalg.norm(n @ stack, axis=2) / np.sum(x * n, axis=1)
    inside = 0
    for _ in range(_CAP):
        h = ((1.0 / r).T @ sq).reshape(-1, dim, dim)
        n = np.linalg.solve(h, x[:, :, None])[:, :, 0]
        r_new = np.linalg.norm(n @ stack, axis=2)
        x_dot = np.sum(x * n, axis=1)
        is_in = np.max(r_new / r, axis=0) <= 1.0
        live = ~is_in & (x_dot <= np.sum(r_new, axis=0))
        inside += int(np.count_nonzero(is_in))
        x = x[live]
        r = r_new[:, live] / x_dot[live]
        if x.shape[0] == 0:
            break
    return inside, x.shape[0]


def monte_carlo_volume(scene: EllipsoidSum, samples: int, seed: int) -> McEstimate:
    """Rejection-sampling volume estimate of the Minkowski sum.

    Samples uniformly in the axis-aligned bounding box of the
    direction-optimal outer ellipsoid.  Samples in the inner sum ellipsoid
    are inside and samples outside the outer ellipsoid are outside; the
    shell between them goes to the certified gauge test (module
    docstring).  A sample that test leaves undecided after _CAP steps is
    counted as inside and reported in `ambiguous`.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    seed = int(seed)

    outer = bounds.minvol_outer(scene)
    half = np.sqrt(np.diag(outer.entries @ outer.entries))
    box_volume = float(np.prod(2.0 * half))

    inner = bounds.inner_sum_matrix(scene)
    inner_q = np.linalg.inv(inner.entries @ inner.entries)
    outer_q = np.linalg.inv(outer.entries @ outer.entries)
    stack = np.stack(scene.matrices)

    hits = 0
    ambiguous = 0
    done = 0
    batch_index = 0
    while done < samples:
        count = min(_BATCH, samples - done)
        rng = np.random.default_rng([seed, batch_index])
        x = rng.uniform(-1.0, 1.0, size=(_BATCH, scene.dim))[:count] * half
        q_in = np.einsum("ki,ij,kj->k", x, inner_q, x)
        q_out = np.einsum("ki,ij,kj->k", x, outer_q, x)
        accept = q_in <= 1.0
        shell = ~accept & (q_out <= 1.0)
        hits += int(np.count_nonzero(accept))
        if np.any(shell):
            # the outer ellipsoid's normal at x: the gradient of its form
            xs = x[shell]
            inside, undecided = _gauge_test(stack, xs, xs @ outer_q)
            hits += inside + undecided
            ambiguous += undecided
        done += count
        batch_index += 1

    p = hits / samples
    return McEstimate(
        value=box_volume * p,
        std_error=box_volume * math.sqrt(p * (1.0 - p) / samples),
        samples=samples,
        seed=seed,
        ambiguous=ambiguous,
    )


def polyline_perimeter(scene: EllipsoidSum, resolution: int) -> float:
    """Arc length of the closed polyline through boundary points (2D only).

    Vertices are taken at uniformly spaced normals; converges like
    resolution^-2.
    """
    if scene.dim != 2:
        raise ValueError("polyline_perimeter requires a 2D scene")
    theta = 2.0 * np.pi * np.arange(resolution) / resolution
    ns = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = geometry.boundary_points(scene, ns)
    diffs = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    return float(np.sum(np.linalg.norm(diffs, axis=1)))
