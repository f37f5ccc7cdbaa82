"""The scene's read-only term stack, and the batched kernels that read it.

The references below are the per-term loops the kernels replaced, and the
tangent basis built as a full reflector and then sliced; the kernels must
reproduce them bit for bit (tobytes, so -0.0 counts).  The outer
references stack the rows of G term by term and take |G| from the SVD.
"""

import itertools
import warnings

import numpy as np
import pytest

from minksum.bounds import (
    _FIXED_POINT_CAP,
    _FIXED_POINT_TOL,
    direction_outer_matrix,
    heuristic_gammas,
    minvol_outer,
    outer_gamma_matrix,
)
from minksum.curvature import curvature_stack, reduced_stack, tangent_basis_stack
from minksum.geometry import COND_WARN, EllipsoidSum, boundary_points, support_values
from minksum.spd import _sqrt_raw, _sym_part

from conftest import random_spd, random_unit


def ref_boundary_points(mats, ns):
    out = np.zeros_like(ns)
    for a in mats:
        r = np.linalg.norm(ns @ a, axis=1)
        out += ns @ (a @ a) / r[:, None]
    return out


def ref_support_values(mats, ns):
    h = np.zeros(ns.shape[0])
    for a in mats:
        h += np.linalg.norm(ns @ a, axis=1)
    return h


def ref_curvature_stack(mats, ns):
    k, dim = ns.shape
    c = np.zeros((k, dim, dim))
    for a in mats:
        a2 = a @ a
        r = np.linalg.norm(ns @ a, axis=1)
        w = ns @ a2
        c += a2[None, :, :] / r[:, None, None]
        c -= w[:, :, None] * w[:, None, :] / (r**3)[:, None, None]
    return c


def ref_tangent_basis_stack(ns):
    k, dim = ns.shape
    v = ns.copy()
    v[:, -1] -= 1.0
    s = np.einsum("ki,ki->k", v, v)
    h = np.broadcast_to(np.eye(dim), (k, dim, dim)).copy()
    ok = s > 1e-28
    h[ok] -= 2.0 * v[ok, :, None] * v[ok, None, :] / s[ok, None, None]
    return h[:, :, : dim - 1]


def ref_reduced_stack(mats, ns):
    m = ref_tangent_basis_stack(ns)
    red = np.einsum("kpi,kpq,kqj->kij", m, ref_curvature_stack(mats, ns), m)
    return 0.5 * (red + np.swapaxes(red, 1, 2))


def ref_abs_of_rows(rows):
    """|G| of the matrix whose row blocks are `rows`, from its thin SVD."""
    g = np.zeros((0, rows[0].shape[1]))
    for block in rows:
        g = np.concatenate([g, block])
    _, sv, vh = np.linalg.svd(g, full_matrices=False)
    return _sym_part(vh.T * sv[None, :] @ vh)


def ref_outer_gamma(mats, gammas):
    if len(mats) == 1:  # gamma = 1: the term itself
        return mats[0]
    return ref_abs_of_rows([np.sqrt(g) * a for g, a in zip(gammas, mats)])


def squared_outer_gamma(mats, gammas):
    """The paper's form: the eigh root of the formed sum gamma_i A_i^2."""
    total = np.zeros(mats[0].shape)
    for g, a in zip(gammas, mats):
        total += g * (a @ a)
    return _sqrt_raw(total)


def ref_heuristic_gammas(mats):
    roots = np.array([np.sqrt(np.trace(a @ a)) for a in mats])
    return float(np.sum(roots)) / roots


def ref_direction_outer(mats, l):
    norms = [float(np.linalg.norm(a @ l)) for a in mats]
    s = 0.0
    for r in norms:
        s += r
    return ref_outer_gamma(mats, [s / r for r in norms])


def ref_minvol_outer(mats):
    squares = [a @ a for a in mats]
    heuristic = ref_heuristic_gammas(mats)
    w = 1.0 / heuristic
    for _ in range(_FIXED_POINT_CAP):
        x_inv = np.linalg.inv(sum(q / wi for q, wi in zip(squares, w)))
        new = np.sqrt([np.trace(x_inv @ q) for q in squares])
        new /= np.sum(new)
        moved = float(np.max(np.abs(new - w)))
        w = new
        if moved <= _FIXED_POINT_TOL:
            break
    outer, fallback = ref_outer_gamma(mats, 1.0 / w), ref_outer_gamma(mats, heuristic)
    return fallback if np.linalg.det(fallback) < np.linalg.det(outer) else outer


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def term_matrices(rng, dim, m, diagonal):
    if diagonal:
        return [np.diag(rng.uniform(0.3, 3.0, dim)) for _ in range(m)]
    return [random_spd(rng, dim) for _ in range(m)]


def normals(rng, dim, k):
    """k unit rows; the first ones are +-e_i, whose products with diagonal terms hold signed zeros."""
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    rows = [random_unit(rng, dim) for _ in range(max(k - len(axes), 0))]
    return np.concatenate([axes[:k], np.array(rows).reshape(-1, dim)])


class TestBatchedKernels:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_bitwise_against_term_loops(self, dim):
        rng = np.random.default_rng(1900 + dim)
        for m, diagonal in itertools.product(range(1, 7), (False, True)):
            mats = term_matrices(rng, dim, m, diagonal)
            sc = EllipsoidSum.from_matrices(mats)
            mats = list(sc.stack)  # the validated (exactly symmetric) terms
            for k in (1, 5, 4096):
                ns = normals(rng, dim, k)
                assert same_bytes(boundary_points(sc, ns), ref_boundary_points(mats, ns))
                assert same_bytes(support_values(sc, ns), ref_support_values(mats, ns))
                assert same_bytes(curvature_stack(sc, ns), ref_curvature_stack(mats, ns))
                assert same_bytes(tangent_basis_stack(ns), ref_tangent_basis_stack(ns))
                assert same_bytes(reduced_stack(sc, ns), ref_reduced_stack(mats, ns))
            gammas = heuristic_gammas(sc)
            assert same_bytes(gammas, ref_heuristic_gammas(mats))
            if m > 1:
                assert same_bytes(
                    outer_gamma_matrix(sc, gammas).entries, ref_outer_gamma(mats, gammas)
                )
                assert same_bytes(minvol_outer(sc).entries, ref_minvol_outer(mats))
                # the squared formula agrees on these well-conditioned terms
                squared = squared_outer_gamma(mats, gammas)
                gap = np.linalg.norm(outer_gamma_matrix(sc, gammas).entries - squared)
                assert gap <= 1e-12 * np.linalg.norm(squared)
            for l in normals(rng, dim, 2 * dim + 2):
                assert same_bytes(direction_outer_matrix(sc, l).entries, ref_direction_outer(mats, l))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_tangent_basis_near_and_at_the_pole(self, dim):
        pole = np.eye(dim)[-1]
        tilt = np.full(dim, 1e-15)
        ns = np.array([pole, -pole, pole + tilt, pole + 1e3 * tilt, np.full(dim, np.nan)])
        assert same_bytes(tangent_basis_stack(ns), ref_tangent_basis_stack(ns))
        assert same_bytes(tangent_basis_stack(ns)[0], np.eye(dim)[:, : dim - 1])


class TestStack:
    def test_shapes_and_values(self):
        rng = np.random.default_rng(1910)
        mats = [random_spd(rng, 3) for _ in range(4)]
        sc = EllipsoidSum.from_matrices(mats)
        assert sc.stack.shape == sc.squares.shape == (4, 3, 3)
        for a, t, a2 in zip(sc.stack, sc.terms, sc.squares):
            assert same_bytes(a, t.entries)
            assert same_bytes(a2, a @ a)

    def test_read_only(self):
        rng = np.random.default_rng(1911)
        sc = EllipsoidSum.from_matrices([random_spd(rng, 2) for _ in range(2)])
        for arr in (sc.stack, sc.squares):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0


class TestConditionWarning:
    def test_names_the_term_above_the_limit(self):
        above = np.diag([1.0, 1.0 / (1.01 * COND_WARN)])
        with pytest.warns(UserWarning, match="ellipsoid 1 has condition number"):
            EllipsoidSum.from_matrices([np.eye(2), above])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_parts_the_library_builds_do_not_warn_again(self, dim):
        # the Steiner sandwich sums the first k terms, the plot draws each
        # term alone; the scene warned about term 1 when it was built
        from minksum import quadrature, steiner, svgfig

        rng = np.random.default_rng(200 + dim)
        mats = [random_spd(rng, dim) for _ in range(4)]
        mats[1] = np.diag(np.geomspace(1.0, 1.0 / (2.0 * COND_WARN), dim))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scene = EllipsoidSum.from_matrices(mats)
            if dim == 3:
                steiner.volume_sum_3d_bounds(scene, quadrature.build_quadrature(3, 16))
            else:
                svgfig.render_scene_svg(scene, show=("sum",))
        assert [str(w.message)[:12] for w in caught] == ["ellipsoid 1 "]

    def test_silent_just_below_the_limit(self):
        below = np.diag([1.0, 1.0 / (0.99 * COND_WARN)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EllipsoidSum.from_matrices([np.eye(2), below])
