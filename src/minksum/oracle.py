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

The pool is held component-major: the samples x as an (N, P) array and
the ratios |A_i n| / x.n as (m, P).  Every step then operates on whole
pool rows of length P.  numpy pays a per-row overhead on a trailing axis
of length N = 2..5 that costs several times the arithmetic, so neither
the pool nor the sampling reduces or broadcasts over one.  Each step
builds the N(N+1)/2 distinct entries of every H with one matrix product
and solves H n' = x with the component-major LDL^T of `spd._ldl`, whose
loops run over N, in place of a batched LAPACK solve, whose per-matrix
call overhead on 2x2 and 3x3 systems exceeds the solve itself.  H is
SPD, so the factorisation needs no pivoting.  The norms |A_i n| come
from `geometry.term_norms`.  The sums over N add in index order, as
numpy's reductions over a length-N axis do for N < 8.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import bounds, geometry
from .geometry import EllipsoidSum, term_norms
from .spd import _ldl

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


def _ldl_solve(h_upper: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve H n = x for every column of a pool of SPD matrices H.

    h_upper holds one row per entry of H's upper triangle, in
    np.triu_indices order, and one column per pool row; x is (N, P).  The
    factors come from `spd._ldl`; forward and back substitution run over
    N on whole pool rows.
    """
    dim = x.shape[0]
    low, d = _ldl(h_upper, dim)
    y = []
    for i in range(dim):
        v = x[i]
        for k in range(i):
            v = v - low[i][k] * y[k]
        y.append(v)
    n = np.empty_like(x)
    for i in reversed(range(dim)):
        v = y[i] / d[i]
        for k in range(i + 1, dim):
            v = v - low[k][i] * n[k]
        n[i] = v
    return n


def _gauge_test(
    stack: np.ndarray, shell_chunks: Iterable[np.ndarray], outer_q: np.ndarray
) -> tuple[int, int]:
    """(inside, undecided) counts over the rows of every array in shell_chunks.

    Rows enter a pool of at most _POOL rows in queue order, each starting
    from the outer ellipsoid's normal x @ outer_q, and every step updates
    the whole pool.  A row leaves at the first step that certifies it
    inside or outside (module docstring), or undecided after its _CAP-th
    step; the pool is topped up from the queue before every step.

    The chunks are row-major (k, N); the pool is component-major (module
    docstring): x is (N, P) and r is (m, P).  Each step takes H's
    N(N+1)/2 distinct entries from one product with the upper triangles
    of the A_i^2 and solves by _ldl_solve.
    """
    m, dim, _ = stack.shape
    upper = np.triu_indices(dim)
    sq_upper = np.ascontiguousarray((stack @ stack)[:, upper[0], upper[1]].T)
    queue = iter(shell_chunks)
    pending = np.empty((0, dim))
    x = np.empty((dim, 0))
    r = np.empty((m, 0))
    steps = np.empty(0, dtype=np.int64)
    inside = undecided = 0
    while True:
        free = _POOL - x.shape[1]
        while pending.shape[0] < free and (chunk := next(queue, None)) is not None:
            pending = np.concatenate([pending, chunk])
        if free and pending.shape[0]:
            new, pending = pending[:free].T, pending[free:]
            # the outer ellipsoid's normal at x: the gradient of its form
            n = outer_q.T @ new
            r_new = term_norms(stack, n) / np.sum(new * n, axis=0)
            x = np.concatenate([x, new], axis=1)
            r = np.concatenate([r, r_new], axis=1)
            steps = np.concatenate([steps, np.zeros(new.shape[1], dtype=np.int64)])
        if x.shape[1] == 0:
            return inside, undecided
        n = _ldl_solve(sq_upper @ (1.0 / r), x)
        r_new = term_norms(stack, n)
        x_dot = np.sum(x * n, axis=0)
        is_in = np.max(r_new / r, axis=0) <= 1.0
        live = ~is_in & (x_dot <= np.sum(r_new, axis=0))
        steps += 1
        capped = live & (steps == _CAP)
        live &= ~capped
        inside += int(np.count_nonzero(is_in))
        undecided += int(np.count_nonzero(capped))
        keep = np.flatnonzero(live)
        x = x.take(keep, axis=1)
        r = r_new.take(keep, axis=1) / x_dot.take(keep)
        steps = steps.take(keep)


def monte_carlo_volume(scene: EllipsoidSum, samples: int, seed: int) -> McEstimate:
    """Rejection-sampling volume estimate of the Minkowski sum.

    Samples uniformly in the axis-aligned bounding box of the
    direction-optimal outer ellipsoid, in batches of _BATCH drawn from
    the substreams (seed, batch index); the last batch draws only the
    rows it uses, the leading rows of a full batch.  Samples in the inner
    sum ellipsoid are inside and samples outside the outer ellipsoid are
    outside; the shell between them queues for the certified gauge test
    (module docstring), which runs one pool of at most _POOL rows over the
    whole estimate.  Each row is decided independently, so the estimate
    depends neither on batch nor on pool scheduling.  A sample that test
    leaves undecided after _CAP steps of its own is counted as inside and
    reported in `ambiguous`.

    Each batch is scaled by a product with diag(half), which is bitwise
    the broadcast u * half, and its shell rows are selected by index
    (take), not by a boolean mask: both avoid numpy's per-row work on the
    short trailing axis.  `samples` and `seed` must be integers
    (operator.index); `seed` must be non-negative.
    """
    samples, seed = operator.index(samples), operator.index(seed)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")

    outer = bounds.minvol_outer(scene)
    half = np.sqrt(np.diag(outer.entries @ outer.entries))
    box_volume = float(np.prod(2.0 * half))

    inner = bounds.inner_sum_matrix(scene)
    inner_q = np.linalg.inv(inner.entries @ inner.entries)
    outer_q = np.linalg.inv(outer.entries @ outer.entries)
    # the quadratic forms sum their rows by a product with ones: numpy's
    # sum over a length-N axis costs several times the whole form
    ones = np.ones(scene.dim)
    scale = np.diag(half)
    accepted = []

    def shell_chunks():
        for batch_index, start in enumerate(range(0, samples, _BATCH)):
            rng = np.random.default_rng([seed, batch_index])
            x = rng.uniform(-1.0, 1.0, size=(min(_BATCH, samples - start), scene.dim)) @ scale
            accept = ((x @ inner_q) * x) @ ones <= 1.0
            accepted.append(int(np.count_nonzero(accept)))
            shell = ~accept & (((x @ outer_q) * x) @ ones <= 1.0)
            yield x.take(np.flatnonzero(shell), axis=0)

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
