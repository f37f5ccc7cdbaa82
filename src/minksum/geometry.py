"""Ellipsoid scenes and the closed-form Minkowski-sum boundary.

An ellipsoid here is always centered at the origin and described by its
SPD shape matrix A: the solid body is {x : x^T A^-2 x < 1}, i.e. the image
of the open unit ball under A.  A scene is an ordered list of ellipsoids
of equal dimension whose Minkowski sum is the object of study.

The boundary of the sum admits an exact Gauss-map parameterization: the
point with outward unit normal n is sum_i A_i^2 n / |A_i n|, which is
positively homogeneous of degree zero in n.

Every formula is a sum over the terms: a scene keeps its term matrices as
one read-only (m, N, N) `stack` and their squares A_i^2 as `squares`, and
the kernels sum batched products over axis 0, in term order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spd import SpdError, SpdMatrix, _sqrt_raw

# Condition number above which per-term results are flagged unreliable.
COND_WARN = 1e8


class SceneSchemaError(ValueError):
    """Scene JSON does not match the expected schema."""


class SceneValidationError(ValueError):
    """Scene JSON parsed but a matrix failed numeric validation."""


@dataclass(frozen=True)
class EllipsoidSum:
    """Ordered shape matrices of ellipsoids sharing one dimension; the summed scene."""

    terms: tuple[SpdMatrix, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    squares: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) < 1:
            raise ValueError("a scene needs at least one ellipsoid")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in scene: {sorted(dims)}")
        stack = np.stack([t.entries for t in terms])
        lam = np.linalg.eigvalsh(stack)
        for i in np.flatnonzero(lam[:, -1] / lam[:, 0] > COND_WARN):
            warnings.warn(
                f"ellipsoid {i} has condition number > {COND_WARN:.0e}; "
                "results may be unreliable",
                stacklevel=2,
            )
        squares = stack @ stack
        stack.setflags(write=False)
        squares.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "squares", squares)

    @classmethod
    def from_matrices(cls, mats) -> "EllipsoidSum":
        return cls(tuple(SpdMatrix(np.asarray(m, float)) for m in mats))

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    @property
    def m(self) -> int:
        return len(self.terms)


def ellipsoid_from_general(s) -> SpdMatrix:
    """Shape matrix of the ellipsoid {S u : |u| < 1} for a nonsingular S.

    The unique SPD representative is A = (S S^T)^(1/2).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    n = s.shape[0]
    norm = np.linalg.norm(s, 2)
    if abs(np.linalg.det(s)) <= 1e-12 * norm**n:
        raise ValueError("matrix is singular (or too close to singular)")
    return SpdMatrix(_sqrt_raw(s @ s.T))


def boundary_points(scene: EllipsoidSum, normals: np.ndarray) -> np.ndarray:
    """Boundary points of the sum for rows of (not necessarily unit) normals."""
    ns = np.atleast_2d(np.asarray(normals, dtype=float))
    r = np.linalg.norm(ns @ scene.stack, axis=2)
    return np.sum(ns @ scene.squares / r[:, :, None], axis=0)


def sum_boundary_point(scene: EllipsoidSum, n) -> np.ndarray:
    """Boundary point of the Minkowski sum with outward normal n/|n|."""
    n = np.asarray(n, dtype=float)
    if np.linalg.norm(n) == 0.0:
        raise ValueError("normal direction must be nonzero")
    return boundary_points(scene, n[None, :])[0]


def legacy_pair_boundary(a1: SpdMatrix, a2: SpdMatrix, u) -> np.ndarray:
    """Two-ellipsoid offset-surface formula, parameterized by u on dE_1.

    Equals the symmetric formula at n with u = A_1 n / |A_1 n|.  Kept as an
    independent cross-check of the symmetric parameterization.
    """
    u = np.asarray(u, dtype=float)
    w = a2.entries @ np.linalg.solve(a1.entries, u)
    return a1.entries @ u + a2.entries @ (w / np.linalg.norm(w))


def support_values(scene: EllipsoidSum, normals: np.ndarray) -> np.ndarray:
    """Support function sum_i |A_i n| evaluated at rows of unit normals."""
    ns = np.atleast_2d(np.asarray(normals, dtype=float))
    return np.sum(np.linalg.norm(ns @ scene.stack, axis=2), axis=0)


def support_value(scene: EllipsoidSum, n) -> float:
    """Support function of the sum at a single unit direction."""
    return float(support_values(scene, np.asarray(n, float)[None, :])[0])


def transform_scene(scene: EllipsoidSum, s) -> EllipsoidSum:
    """Apply a nonsingular linear map S to the scene: A_i -> (S A_i^2 S^T)^(1/2)."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if abs(np.linalg.det(s)) <= 1e-12 * np.linalg.norm(s, 2) ** n:
        raise ValueError("transformation matrix is singular")
    return EllipsoidSum.from_matrices([_sqrt_raw(s @ a @ a @ s.T) for a in scene.stack])


def _support_and_points(scene: EllipsoidSum, ns: np.ndarray):
    """h(n) and the boundary points x(n) at rows of normals, from one `ns @ stack` product."""
    r = np.linalg.norm(ns @ scene.stack, axis=2)
    return np.sum(r, axis=0), np.sum(ns @ scene.squares / r[:, :, None], axis=0)


def max_support_gap(scene: EllipsoidSum, nodes, grid_support, body) -> float:
    """Refined max over unit directions n of s(n) - h(n).

    s is the support function of a candidate body and h that of the sum;
    `grid_support` holds h at the rows of `nodes`, and `body(ns)` returns
    s and its gradient at rows of directions (the gradient may be one row
    that broadcasts).  The max is located on the grid of `nodes` and
    refined, deterministically, by 20 adaptive projected-gradient steps
    from each of the 5 best nodes.  The 5 ascents run in lockstep as the
    rows of one array; a row stops once its projected gradient vanishes.
    Each step evaluates the body and the sum once, at the candidate rows,
    and an accepted row keeps those values for the next step.
    """
    gaps = body(nodes)[0] - grid_support
    top = np.argsort(gaps, kind="stable")[-5:]
    n, val = nodes[top], gaps[top]
    slope = body(n)[1] - _support_and_points(scene, n)[1]
    step = np.full(len(top), 0.05)
    live = np.ones(len(top), dtype=bool)
    for _ in range(20):
        grad = slope - n * np.sum(n * slope, axis=1, keepdims=True)
        gn = np.linalg.norm(grad, axis=1)
        live &= gn != 0.0
        if not live.any():
            break
        cand = n + step[:, None] * grad / np.where(live, gn, 1.0)[:, None]
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        (s, ds), (h, x) = body(cand), _support_and_points(scene, cand)
        v = s - h
        gain = live & (v > val)
        n, val = np.where(gain[:, None], cand, n), np.where(gain, v, val)
        slope = np.where(gain[:, None], ds - x, slope)
        step *= np.where(gain, 1.5, 0.5)
    return float(np.max(val))


def contains_point(scene: EllipsoidSum, x, grid, tol: float | None = None) -> str:
    """Classify a point as 'inside', 'outside', or 'boundary'.

    Convexity gives x in the sum iff x.n <= h(n) for every unit direction
    n; the max of x.n - h(n) is searched by max_support_gap over the rows
    of `grid`.
    """
    x = np.asarray(x, dtype=float)
    nodes = np.asarray(getattr(grid, "nodes", grid), dtype=float)
    h = support_values(scene, nodes)
    if tol is None:
        tol = 1e-8 * 2.0 * float(np.max(h))
    best = max_support_gap(scene, nodes, h, lambda ns: (ns @ x, x))
    if best > tol:
        return "outside"
    if best < -tol:
        return "inside"
    return "boundary"


def scene_to_json(scene: EllipsoidSum) -> dict:
    """Serializable scene description (matrices row-major)."""
    return {
        "dimension": scene.dim,
        "ellipsoids": [{"matrix": a.tolist()} for a in scene.stack],
    }


def scene_from_json(obj) -> EllipsoidSum:
    """Parse a scene dict; raises SceneSchemaError / SceneValidationError."""
    if not isinstance(obj, dict):
        raise SceneSchemaError("scene must be a JSON object")
    if "dimension" not in obj or "ellipsoids" not in obj:
        raise SceneSchemaError("scene needs 'dimension' and 'ellipsoids' keys")
    dim = obj["dimension"]
    # bool is a subclass of int, so true would otherwise read as 1
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise SceneSchemaError("'dimension' must be an integer of at least 2")
    items = obj["ellipsoids"]
    if not isinstance(items, list) or not items:
        raise SceneSchemaError("'ellipsoids' must be a non-empty list")

    terms = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SceneSchemaError(f"ellipsoid {i}: entry must be an object")
        if "center" in item:
            raise SceneSchemaError(
                f"ellipsoid {i}: centered ellipsoids are not supported"
            )
        if ("matrix" in item) == ("shape" in item):
            raise SceneSchemaError(
                f"ellipsoid {i}: exactly one of 'matrix' or 'shape' required"
            )
        key = "matrix" if "matrix" in item else "shape"
        try:
            mat = np.asarray(item[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SceneSchemaError(f"ellipsoid {i}: bad {key} entries") from exc
        if mat.shape != (dim, dim):
            raise SceneSchemaError(
                f"ellipsoid {i}: {key} must be {dim}x{dim}, got {mat.shape}"
            )
        try:
            terms.append(SpdMatrix(mat) if key == "matrix" else ellipsoid_from_general(mat))
        except (SpdError, ValueError) as exc:
            raise SceneValidationError(f"ellipsoid {i}: {exc}") from exc
    return EllipsoidSum(tuple(terms))
