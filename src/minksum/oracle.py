"""Brute-force validation oracles: Monte-Carlo volume, polyline perimeter.

Both support low dimensions only: the Monte-Carlo volume N in {2, 3}
(its direction grid has 64^(N-1) nodes), the perimeter N = 2.

These estimators are intentionally independent of the closed-form paths
they validate.  Monte-Carlo membership uses only the support function on
a fixed direction grid; sampling is batched with per-batch substreams
derived from (seed, batch index), so results do not depend on batch
scheduling and are bitwise reproducible.

The dense steps run in row blocks of ``_ROWS`` against all K grid nodes:
the shell membership gap max_j (x.n_j - h_j) and the grid's
nearest-neighbour cosine.  Each row is the same max over the same
per-node values whatever the block size, so blocking changes no
estimate, and working memory is O(_BATCH*N + _ROWS*K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, geometry, quadrature
from .geometry import EllipsoidSum
from .spd import sym_eigen

_BATCH = 1 << 15
_ROWS = 128


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo volume estimate with its binomial standard error."""

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


def _membership_nodes(dim: int) -> np.ndarray:
    res = 720 if dim == 2 else 64
    return quadrature.build_quadrature(dim, res).nodes


def _max_gap(
    xs: np.ndarray, nodes: np.ndarray, h: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """max_j (x.n_j - h_j) for each row x of xs, _ROWS rows at a time."""
    gap = np.empty(xs.shape[0])
    for start in range(0, xs.shape[0], _ROWS):
        block = xs[start : start + _ROWS]
        vals = buf[: block.shape[0]]
        np.matmul(block, nodes.T, out=vals)
        vals -= h
        vals.max(axis=1, out=gap[start : start + _ROWS])
    return gap


def _grid_margin(nodes: np.ndarray, h_max: float) -> float:
    """Upper bound on how far the grid support polytope exceeds the body."""
    # nearest-neighbour angular radius of the grid, conservative by 2x
    buf = np.empty((_ROWS, nodes.shape[0]))
    cos_gap = math.inf
    for start in range(0, nodes.shape[0], _ROWS):
        block = nodes[start : start + _ROWS]
        rows = np.arange(block.shape[0])
        gram = buf[: block.shape[0]]
        np.matmul(block, nodes.T, out=gram)
        gram[rows, start + rows] = -1.0
        cos_gap = min(cos_gap, float(np.min(np.max(gram, axis=1))))
    half_angle = math.acos(min(cos_gap, 1.0))
    return 2.0 * h_max * (1.0 / math.cos(half_angle) - 1.0 + 1e-15)


def monte_carlo_volume(scene: EllipsoidSum, samples: int, seed: int) -> McEstimate:
    """Rejection-sampling volume estimate of the Minkowski sum.

    Samples uniformly in the axis-aligned bounding box of the
    direction-optimal outer ellipsoid.  A sample is outside when some grid
    direction certifies x.n > h(n); it is inside when the certified gap is
    below the grid margin.  Samples in the thin ambiguous band are counted
    as inside and reported separately (conservative).
    """
    if scene.dim > 3:
        raise ValueError("the Monte Carlo oracle supports N in {2, 3} only")
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    seed = int(seed)

    outer = bounds.minvol_outer(scene)
    half = np.sqrt(np.diag(outer.entries @ outer.entries))
    box_volume = float(np.prod(2.0 * half))

    nodes = _membership_nodes(scene.dim)
    h = geometry.support_values(scene, nodes)
    margin = _grid_margin(nodes, float(np.max(h)))

    # Exact shortcuts consistent with the grid rule: points in the inner
    # sum ellipsoid are inside the body (hence inside the grid polytope);
    # points outside the outer ellipsoid inflated by the grid margin are
    # outside the grid polytope.  Only the shell needs the full grid test.
    inner = bounds.inner_sum_matrix(scene)
    inner_q = np.linalg.inv(inner.entries @ inner.entries)
    outer_q = np.linalg.inv(outer.entries @ outer.entries)
    a_min = float(sym_eigen(outer.entries).eigenvalues[0])
    reject_level = (1.0 + margin / a_min) ** 2

    buf = np.empty((_ROWS, nodes.shape[0]))
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
        undecided = ~accept & (q_out <= reject_level)
        hits += int(np.count_nonzero(accept))
        if np.any(undecided):
            gap = _max_gap(x[undecided], nodes, h, buf)
            inside = gap <= 0.0
            hits += int(np.count_nonzero(inside))
            ambiguous += int(np.count_nonzero(inside & (gap > -margin)))
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
