import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import conditioned_spd, random_scene, random_spd, random_unit
from minksum import quadrature
from minksum.bounds import best_inner_john, containment_check, inner_sum_matrix, minvol_outer
from minksum.geometry import (
    COND_WARN,
    EllipsoidSum,
    SceneSchemaError,
    SceneValidationError,
    boundary_points,
    contains_point,
    ellipsoid_from_general,
    legacy_pair_boundary,
    max_support_gap,
    scene_from_json,
    scene_to_json,
    sum_boundary_point,
    support_value,
    support_values,
    transform_scene,
)
from minksum.spd import SpdMatrix


def ball_scene(*radii):
    dim = 2
    return EllipsoidSum.from_matrices([r * np.eye(dim) for r in radii])


class TestEllipsoidFromGeneral:
    def test_identity(self):
        # the singularity test is scale-free: det(S) under- or overflows at
        # these magnitudes, det(S / |S|_2) does not
        for scale in (1.0, 1e-110, 1e110):
            got = ellipsoid_from_general(scale * np.eye(3)).entries
            assert np.allclose(got, scale * np.eye(3), rtol=1e-12, atol=0.0)

    def test_rotation_gives_ball(self):
        th = 0.7
        r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        assert np.allclose(ellipsoid_from_general(r).entries, np.eye(2), atol=1e-12)

    def test_shear_membership(self):
        s = np.array([[1.0, 1.0], [0.0, 1.0]])
        e = ellipsoid_from_general(s)
        ainv2 = np.linalg.inv(e.entries @ e.entries)
        rng = np.random.default_rng(21)
        u = rng.normal(size=(10_000, 2))
        u *= (rng.uniform(0, 1, 10_000) ** 0.5 / np.linalg.norm(u, axis=1))[:, None]
        x = u @ s.T
        vals = np.einsum("ki,ij,kj->k", x, ainv2, x)
        assert np.all(vals < 1.0 + 1e-12)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ellipsoid_from_general(np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestBoundaryPoint:
    def test_unit_ball(self):
        sc = EllipsoidSum.from_matrices([np.eye(3)])
        assert np.allclose(sum_boundary_point(sc, [1, 0, 0]), [1, 0, 0])

    def test_two_balls(self):
        sc = ball_scene(1.5, 2.5)
        n = np.array([0.6, 0.8])
        assert np.allclose(sum_boundary_point(sc, n), 4.0 * n)

    def test_example_pair_arithmetic(self, example_scene):
        # A^2 e1/|A e1| + B^2 e1/|B e1| with A = diag(5, 1/2), B = [[2,2],[2,5]]
        x = sum_boundary_point(example_scene, [1.0, 0.0])
        expected = np.array([5.0, 0.0]) + np.array([8.0, 14.0]) / math.sqrt(8.0)
        assert np.allclose(x, expected, rtol=1e-14)

    def test_homogeneous_degree_zero(self):
        rng = np.random.default_rng(4)
        sc = random_scene(rng, 3, 3)
        n = random_unit(rng, 3)
        x = sum_boundary_point(sc, n)
        for c in (0.1, 1.0, 10.0):
            assert np.allclose(sum_boundary_point(sc, c * n), x, rtol=1e-13)

    def test_term_order_irrelevant(self):
        rng = np.random.default_rng(5)
        mats = [random_spd(rng, 3) for _ in range(3)]
        n = random_unit(rng, 3)
        a = sum_boundary_point(EllipsoidSum.from_matrices(mats), n)
        b = sum_boundary_point(EllipsoidSum.from_matrices(mats[::-1]), n)
        assert np.allclose(a, b, rtol=1e-14)

    def test_single_term_implicit_equation(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 3)
        sc = EllipsoidSum.from_matrices([a])
        inv2 = np.linalg.inv(a @ a)
        for _ in range(50):
            x = sum_boundary_point(sc, random_unit(rng, 3))
            assert x @ inv2 @ x == pytest.approx(1.0, abs=1e-10)

    def test_normal_is_orthogonal_to_tangents(self):
        # finite-difference tangents along sphere coordinates
        rng = np.random.default_rng(14)
        sc = random_scene(rng, 3, 2)
        th, ph = 1.1, 0.4
        eps = 1e-6

        def n_of(t, p):
            return np.array(
                [math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
            )

        n = n_of(th, ph)
        for dt, dp in ((eps, 0.0), (0.0, eps)):
            tang = (
                sum_boundary_point(sc, n_of(th + dt, ph + dp))
                - sum_boundary_point(sc, n_of(th - dt, ph - dp))
            ) / (2 * eps)
            assert abs(n @ tang) < 1e-6 * (1.0 + np.linalg.norm(tang))

    def test_zero_normal_rejected(self):
        sc = ball_scene(1.0)
        with pytest.raises(ValueError):
            sum_boundary_point(sc, [0.0, 0.0])


class TestLegacyPair:
    def test_two_unit_balls(self):
        p = legacy_pair_boundary(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)), [1.0, 0.0])
        assert np.allclose(p, [2.0, 0.0])

    def test_shared_axes(self):
        p = legacy_pair_boundary(
            SpdMatrix(np.diag([2.0, 1.0])), SpdMatrix(np.eye(2)), [0.0, 1.0]
        )
        assert np.allclose(p, [0.0, 2.0])

    def test_reparameterization_matches_sum_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            a1, a2 = random_spd(rng, dim), random_spd(rng, dim)
            sc = EllipsoidSum.from_matrices([a1, a2])
            n = random_unit(rng, dim)
            u = a1 @ n
            u /= np.linalg.norm(u)
            legacy = legacy_pair_boundary(SpdMatrix(a1), SpdMatrix(a2), u)
            direct = sum_boundary_point(sc, n)
            assert np.linalg.norm(legacy - direct) <= 1e-10 * np.linalg.norm(direct)


class TestSupport:
    def test_unit_ball(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        assert support_value(sc, [0.0, 1.0]) == pytest.approx(1.0)

    def test_example_value(self, example_scene):
        assert support_value(example_scene, [1.0, 0.0]) == pytest.approx(
            5.0 + math.sqrt(8.0), rel=1e-14
        )

    def test_equals_normal_dot_boundary(self):
        rng = np.random.default_rng(16)
        sc = random_scene(rng, 3, 3)
        for _ in range(1000):
            n = random_unit(rng, 3)
            h = support_value(sc, n)
            assert abs(n @ sum_boundary_point(sc, n) - h) < 1e-12 * (1 + h)


class TestTransformScene:
    def test_identity_noop(self):
        rng = np.random.default_rng(17)
        sc = random_scene(rng, 2, 2)
        out = transform_scene(sc, np.eye(2))
        for a, b in zip(sc.stack, out.stack):
            assert np.allclose(a, b, rtol=1e-12)

    def test_scalar_scaling(self):
        rng = np.random.default_rng(18)
        sc = random_scene(rng, 3, 2)
        for scale in (2.5, 1e-110, 1e110):
            out = transform_scene(sc, scale * np.eye(3))
            for a, b in zip(sc.stack, out.stack):
                assert np.allclose(b, scale * a, rtol=1e-12, atol=0.0)

    def test_support_transformation_law(self):
        # h_{S scene}(n) = |S^T n| h_scene(S^T n / |S^T n|)
        rng = np.random.default_rng(19)
        for _ in range(20):
            sc = random_scene(rng, 3, 2)
            s = rng.normal(size=(3, 3))
            out = transform_scene(sc, s)
            n = random_unit(rng, 3)
            stn = s.T @ n
            expected = np.linalg.norm(stn) * support_value(
                sc, stn / np.linalg.norm(stn)
            )
            assert support_value(out, n) == pytest.approx(expected, rel=1e-10)

    def test_rejects_singular(self):
        sc = ball_scene(1.0)
        with pytest.raises(ValueError):
            transform_scene(sc, np.zeros((2, 2)))


class TestContainsPoint:
    def test_origin_inside(self):
        rng = np.random.default_rng(20)
        sc = random_scene(rng, 2, 2)
        grid = quadrature.build_quadrature(2, 64)
        assert contains_point(sc, [0.0, 0.0], grid) == "inside"

    def test_scaled_boundary_points(self):
        rng = np.random.default_rng(22)
        grid2 = quadrature.build_quadrature(2, 128)
        grid3 = quadrature.build_quadrature(3, 24)
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            sc = random_scene(rng, dim, 2)
            grid = grid2 if dim == 2 else grid3
            x = sum_boundary_point(sc, random_unit(rng, dim))
            assert contains_point(sc, 1.001 * x, grid, tol=1e-6) == "outside"
            assert contains_point(sc, 0.999 * x, grid, tol=1e-6) == "inside"


def sequential_max_support_gap(scene, nodes, grid_support, support, gradient):
    """Reference: the same ascent run one direction at a time.

    `grid_support` holds the candidate's support at the rows of `nodes`;
    `support` and `gradient` take a single direction.
    """
    gaps = grid_support - support_values(scene, nodes)
    best = -np.inf
    for k in np.argsort(gaps, kind="stable")[-5:]:
        n = nodes[k].copy()
        val = gaps[k]
        step = 0.05
        for _ in range(20):
            grad = gradient(n) - sum_boundary_point(scene, n)
            grad -= n * (n @ grad)
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            cand = n + step * grad / gn
            cand /= np.linalg.norm(cand)
            v = float(support(cand) - support_value(scene, cand))
            if v > val:
                n, val = cand, v
                step *= 1.5
            else:
                step *= 0.5
        best = max(best, val)
    return best


def lockstep_max_support_gap(scene, nodes, grid_support, support, gradient):
    """Reference: the five ascents in lockstep, with s and its gradient from
    separate callables and the sum evaluated twice per step.

    `max_support_gap` must return exactly this value.
    """
    gaps = support(nodes) - grid_support
    top = np.argsort(gaps, kind="stable")[-5:]
    n, val = nodes[top], gaps[top]
    step = np.full(len(top), 0.05)
    live = np.ones(len(top), dtype=bool)
    for _ in range(20):
        grad = gradient(n) - boundary_points(scene, n)
        grad -= n * np.sum(n * grad, axis=1, keepdims=True)
        gn = np.linalg.norm(grad, axis=1)
        live &= gn != 0.0
        if not live.any():
            break
        cand = n + step[:, None] * grad / np.where(live, gn, 1.0)[:, None]
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        v = support(cand) - support_values(scene, cand)
        gain = live & (v > val)
        n[gain], val[gain] = cand[gain], v[gain]
        step *= np.where(gain, 1.5, 0.5)
    return float(np.max(val))


class TestMaxSupportGap:
    RESOLUTION = {2: 720, 3: 64, 4: 16}

    def test_lockstep_matches_sequential(self):
        # 200 candidate matrices and 200 points, scaled to sit within a few
        # percent of the boundary so both decisions are tested near their slack
        rng = np.random.default_rng(24)
        grids = {d: quadrature.build_quadrature(d, r).nodes for d, r in self.RESOLUTION.items()}
        for k in range(400):
            dim = 2 + k % 3
            sc = random_scene(rng, dim, int(rng.integers(1, 6)))
            nodes = grids[dim]
            h = support_values(sc, nodes)
            scale = float(np.max(h))
            if k % 2:
                x = rng.uniform(0.99, 1.01) * sum_boundary_point(sc, random_unit(rng, dim))
                got = max_support_gap(sc, nodes, h, lambda ns: (ns @ x, x))
                assert got == lockstep_max_support_gap(sc, nodes, h, lambda ns: ns @ x, lambda ns: x)
                ref = sequential_max_support_gap(sc, nodes, nodes @ x, lambda n: x @ n, lambda n: x)
                assert abs(got - ref) <= 1e-12 * scale
                tol = 1e-8 * 2.0 * scale
                expected = "outside" if ref > tol else "inside" if ref < -tol else "boundary"
                assert contains_point(sc, x, nodes) == expected
                continue
            c = inner_sum_matrix(sc).entries if k % 4 else random_spd(rng, dim)
            c = c * rng.uniform(0.97, 1.03) / np.max(np.linalg.norm(nodes @ c, axis=1) / h)
            c2 = c @ c
            got = max_support_gap(
                sc,
                nodes,
                h,
                lambda ns: (np.linalg.norm(ns @ c, axis=1), ns @ c2 / np.linalg.norm(ns @ c, axis=1)[:, None]),
            )
            assert got == lockstep_max_support_gap(
                sc,
                nodes,
                h,
                lambda ns: np.linalg.norm(ns @ c, axis=1),
                lambda ns: ns @ c2 / np.linalg.norm(ns @ c, axis=1, keepdims=True),
            )
            ref = sequential_max_support_gap(
                sc,
                nodes,
                np.linalg.norm(nodes @ c, axis=1),
                lambda n: np.linalg.norm(c @ n),
                lambda n: c2 @ n / np.linalg.norm(c @ n),
            )
            assert abs(got - ref) <= 1e-12 * scale
            contained = containment_check(SpdMatrix(c), sc, self.RESOLUTION[dim])
            assert contained == (ref <= 1e-9 * scale)


class TestSceneJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        sc = random_scene(rng, 2, 3)
        back = scene_from_json(scene_to_json(sc))
        for a, b in zip(sc.stack, back.stack):
            assert np.allclose(a, b, rtol=1e-15)

    def test_shape_key_converted(self):
        obj = {
            "dimension": 2,
            "ellipsoids": [{"shape": [[1.0, 1.0], [0.0, 1.0]]}],
        }
        sc = scene_from_json(obj)
        expected = ellipsoid_from_general([[1.0, 1.0], [0.0, 1.0]]).entries
        assert np.allclose(sc.stack[0], expected)

    def test_missing_keys(self):
        with pytest.raises(SceneSchemaError):
            scene_from_json({"dimension": 2})

    def test_rejects_center(self):
        obj = {
            "dimension": 2,
            "ellipsoids": [{"matrix": [[1, 0], [0, 1]], "center": [1, 0]}],
        }
        with pytest.raises(SceneSchemaError):
            scene_from_json(obj)

    def test_both_matrix_and_shape(self):
        obj = {
            "dimension": 2,
            "ellipsoids": [{"matrix": [[1, 0], [0, 1]], "shape": [[1, 0], [0, 1]]}],
        }
        with pytest.raises(SceneSchemaError):
            scene_from_json(obj)

    def test_bad_matrix_reports_index(self):
        obj = {
            "dimension": 2,
            "ellipsoids": [
                {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
                {"matrix": [[1.0, 0.0], [0.0, -1.0]]},
            ],
        }
        with pytest.raises(SceneValidationError, match="ellipsoid 1"):
            scene_from_json(obj)

    @pytest.mark.parametrize("dim", [True, 1, 0, 2.0])
    def test_rejects_bad_dimension(self, dim):
        obj = {"dimension": dim, "ellipsoids": [{"matrix": [[1.0]]}]}
        with pytest.raises(SceneSchemaError, match="dimension"):
            scene_from_json(obj)

    def test_wrong_shape(self):
        obj = {"dimension": 3, "ellipsoids": [{"matrix": [[1, 0], [0, 1]]}]}
        with pytest.raises(SceneSchemaError):
            scene_from_json(obj)


class TestSceneValidation:
    def test_mixed_dimensions(self):
        with pytest.raises(ValueError):
            EllipsoidSum.from_matrices([np.eye(2), np.eye(3)])

    def test_empty(self):
        with pytest.raises(ValueError):
            EllipsoidSum(())

    def test_condition_warning(self):
        with pytest.warns(UserWarning, match="condition"):
            EllipsoidSum.from_matrices([np.diag([1.0, 1e-9])])


class TestBoundaryPointsBetweenBounds:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(1, 6),
        st.floats(0.0, math.log10(COND_WARN)),
    )
    def test_inside_outer_and_outside_inner(self, seed, dim, m, log_kappa):
        # x(n) lies on the sum's boundary: |O^-1 x| <= 1 for the outer bound,
        # |J^-1 x| >= 1 for each inner one, each norm from a solve
        rng = np.random.default_rng(seed)
        sc = EllipsoidSum.from_matrices(
            [conditioned_spd(rng, 10.0 ** rng.uniform(0.0, log_kappa), dim) for _ in range(m)]
        )
        x = boundary_points(sc, rng.normal(size=(64, dim))).T

        def gauge(e):
            return np.linalg.norm(np.linalg.solve(e.entries, x), axis=0)

        assert np.all(gauge(minvol_outer(sc)) <= 1.0 + 1e-9)
        for inner in (inner_sum_matrix(sc), best_inner_john(sc)):
            assert np.all(gauge(inner) >= 1.0 - 1e-9)
