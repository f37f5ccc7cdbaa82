"""Brute-force validation oracles: Monte-Carlo volume, polyline perimeter.

The Monte-Carlo volume works for every N; the perimeter needs N = 2.

These estimators are intentionally independent of the closed-form paths
they validate: Monte-Carlo membership uses only the term matrices and the
inner and outer bound ellipsoids, never the boundary or quadrature code.
Sampling is batched with per-batch substreams derived from (seed, batch
index).  The samples between the inner and outer ellipsoids queue for the
gauge test below, which iterates one bounded pool of them per estimate.
Every row is decided on its own, by its own step count, so results depend
neither on batch nor on pool scheduling and are bitwise reproducible.

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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import bounds, geometry
from .geometry import EllipsoidSum

_BATCH = 1 << 15
_POOL = 1 << 12
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


def _gauge_test(
    stack: np.ndarray, shell_chunks: Iterable[np.ndarray], outer_q: np.ndarray
) -> tuple[int, int]:
    """(inside, undecided) counts over the rows of every array in shell_chunks.

    Rows enter a pool of at most _POOL rows in queue order, each starting
    from the outer ellipsoid's normal x @ outer_q, and every step updates
    the whole pool.  A row leaves at the first step that certifies it
    inside or outside (module docstring), or undecided after its _CAP-th
    step; the pool is topped up from the queue before every step.
    """
    m, dim, _ = stack.shape
    sq = (stack @ stack).reshape(m, dim * dim)
    queue = iter(shell_chunks)
    pending = np.empty((0, dim))
    x = np.empty((0, dim))
    r = np.empty((m, 0))
    steps = np.empty(0, dtype=np.int64)
    inside = undecided = 0
    while True:
        free = _POOL - x.shape[0]
        while pending.shape[0] < free and (chunk := next(queue, None)) is not None:
            pending = np.concatenate([pending, chunk])
        if free and pending.shape[0]:
            new, pending = pending[:free], pending[free:]
            # the outer ellipsoid's normal at x: the gradient of its form
            n = new @ outer_q
            r_new = np.linalg.norm(n @ stack, axis=2) / np.sum(new * n, axis=1)
            x = np.concatenate([x, new])
            r = np.concatenate([r, r_new], axis=1)
            steps = np.concatenate([steps, np.zeros(new.shape[0], dtype=np.int64)])
        if x.shape[0] == 0:
            return inside, undecided
        h = ((1.0 / r).T @ sq).reshape(-1, dim, dim)
        n = np.linalg.solve(h, x[:, :, None])[:, :, 0]
        r_new = np.linalg.norm(n @ stack, axis=2)
        x_dot = np.sum(x * n, axis=1)
        is_in = np.max(r_new / r, axis=0) <= 1.0
        live = ~is_in & (x_dot <= np.sum(r_new, axis=0))
        steps += 1
        capped = live & (steps == _CAP)
        live &= ~capped
        inside += int(np.count_nonzero(is_in))
        undecided += int(np.count_nonzero(capped))
        x = x[live]
        r = r_new[:, live] / x_dot[live]
        steps = steps[live]


def monte_carlo_volume(scene: EllipsoidSum, samples: int, seed: int) -> McEstimate:
    """Rejection-sampling volume estimate of the Minkowski sum.

    Samples uniformly in the axis-aligned bounding box of the
    direction-optimal outer ellipsoid, in batches of _BATCH drawn from
    the substreams (seed, batch index).  Samples in the inner sum
    ellipsoid are inside and samples outside the outer ellipsoid are
    outside; the shell between them queues for the certified gauge test
    (module docstring), which runs one pool of at most _POOL rows over the
    whole estimate.  Each row is decided independently, so the estimate
    depends neither on batch nor on pool scheduling.  A sample that test
    leaves undecided after _CAP steps of its own is counted as inside and
    reported in `ambiguous`.
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
    # the quadratic forms sum their rows by a product with ones: numpy's
    # sum over a length-N axis costs several times the whole form
    ones = np.ones(scene.dim)
    accepted = []

    def shell_chunks():
        for batch_index, start in enumerate(range(0, samples, _BATCH)):
            rng = np.random.default_rng([seed, batch_index])
            x = rng.uniform(-1.0, 1.0, size=(_BATCH, scene.dim))[: samples - start] * half
            accept = ((x @ inner_q) * x) @ ones <= 1.0
            accepted.append(int(np.count_nonzero(accept)))
            yield x[~accept & (((x @ outer_q) * x) @ ones <= 1.0)]

    inside, ambiguous = _gauge_test(scene.stack, shell_chunks(), outer_q)
    p = (sum(accepted) + inside + ambiguous) / samples
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
