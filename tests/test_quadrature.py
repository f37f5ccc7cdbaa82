import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe, elliprg

from conftest import conditioned_scene, conditioned_spd, random_scene
from minksum.geometry import EllipsoidSum
from minksum.spd import SpdMatrix
from minksum import curvature, quadrature, steiner
from minksum.oracle import polyline_perimeter
from minksum.quadrature import (
    SphereQuadrature,
    build_quadrature,
    gaussian_curvature_integral,
    hemisphere,
    mean_curvature_integral,
    surface_area,
    sphere_measure,
    unit_ball_volume,
    volume_divergence,
    volume_term_charts,
)


def prolate_area(a, c):
    """Surface area of the spheroid diag(a, a, c) with c > a."""
    e = math.sqrt(1.0 - (a / c) ** 2)
    return 2.0 * math.pi * a * a * (1.0 + (c / (a * e)) * math.asin(e))


def prolate_mean_curvature_integral(a, c):
    """Integral of mean curvature over the spheroid diag(a, a, c), c > a."""
    w = math.sqrt(c * c - a * a)
    return 2.0 * math.pi * (c + (a * a / w) * math.acosh(c / a))


class TestBuildQuadrature:
    def test_2d_res4(self):
        quad = build_quadrature(2, 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(quad.nodes, expected, atol=1e-15)
        assert np.allclose(quad.weights, math.pi / 2)

    def test_weight_normalization(self):
        assert np.sum(build_quadrature(3, 32).weights) == pytest.approx(
            4 * math.pi, rel=1e-12
        )
        assert np.sum(build_quadrature(2, 100).weights) == pytest.approx(
            2 * math.pi, rel=1e-14
        )
        assert np.sum(build_quadrature(5, 8).weights) == pytest.approx(
            2 * math.pi**2 * 4 / 3, rel=1e-10
        )

    def test_unit_nodes(self):
        for dim, res in ((2, 16), (3, 12), (4, 6)):
            quad = build_quadrature(dim, res)
            assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0, atol=1e-12)

    def test_second_moment(self):
        quad = build_quadrature(3, 32)
        mom = float(np.sum(quad.weights * quad.nodes[:, 0] ** 2))
        assert mom == pytest.approx(4 * math.pi / 3, abs=1e-10)

    @pytest.mark.parametrize("dim", [4, 5])
    def test_fourth_moments_exact(self, dim):
        # resolution 8 is exact to polynomial degree 15 in every coordinate
        quad = build_quadrature(dim, 8)
        n, sigma = quad.nodes, sphere_measure(dim)
        mixed = float(np.sum(quad.weights * n[:, 0] ** 2 * n[:, -1] ** 2))
        pure = float(np.sum(quad.weights * n[:, 1] ** 4))
        assert mixed == pytest.approx(sigma / (dim * (dim + 2)), rel=1e-14)
        assert pure == pytest.approx(3 * sigma / (dim * (dim + 2)), rel=1e-14)

    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError):
            build_quadrature(2, 3)

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            build_quadrature(1, 8)


class TestQuadratureCache:
    def test_repeated_build_is_shared(self):
        assert build_quadrature(3, 64) is build_quadrature(3, 64)
        assert build_quadrature(3, 64) is not build_quadrature(3, 32)

    def test_rule_is_read_only(self):
        quad = build_quadrature(3, 16)
        with pytest.raises(ValueError):
            quad.nodes[0, 0] = 0.0
        with pytest.raises(ValueError):
            quad.weights[0] = 0.0
        with pytest.raises(ValueError):
            quad.nodes[:3] *= 2.0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_cached_equals_uncached(self, dim):
        cached = build_quadrature(dim, 12)
        fresh = quadrature._rule.__wrapped__(dim, 12)
        assert fresh is not cached
        assert cached.dim == fresh.dim == dim
        assert cached.nodes.tobytes() == fresh.nodes.tobytes()
        assert cached.weights.tobytes() == fresh.weights.tobytes()
        quadrature._rule.cache_clear()
        rebuilt = build_quadrature(dim, 12)
        assert rebuilt is not cached
        assert rebuilt.nodes.tobytes() == cached.nodes.tobytes()
        assert rebuilt.weights.tobytes() == cached.weights.tobytes()

    def test_bad_arguments_raise_with_a_cached_rule(self):
        build_quadrature(3, 64)
        build_quadrature(2, 8)
        for dim, res in ((1, 8), (0, 64), (1.5, 64), (2, 3), (3, 3.5), (3, 0)):
            with pytest.raises(ValueError):
                build_quadrature(dim, res)
        # a float equal to a cached integer argument must not hit its entry
        for dim, res in ((3, 64.0), (3.0, 64), (2, 8.0), (3, np.float64(64.0))):
            with pytest.raises(TypeError):
                build_quadrature(dim, res)

    def test_numpy_integer_arguments_share_the_rule(self):
        quad = build_quadrature(np.int64(3), np.int32(64))
        assert quad is build_quadrature(3, 64)
        assert type(quad.dim) is int


class TestHemisphere:
    RULES = [(2, 720), (2, 256), (3, 64), (3, 16), (4, 16), (5, 8)]

    @pytest.mark.parametrize("dim, res", RULES)
    def test_weights_sum_to_sphere_measure(self, dim, res):
        half = hemisphere(build_quadrature(dim, res))
        assert np.sum(half.weights) == pytest.approx(sphere_measure(dim), rel=1e-10)

    @pytest.mark.parametrize("dim, res", RULES)
    def test_upper_half_holds_every_antipode(self, dim, res):
        quad = build_quadrature(dim, res)
        half, lower = hemisphere(quad), quad.nodes[: len(quad.nodes) // 2]
        assert len(half.nodes) == len(lower) == res ** (dim - 1) // 2
        assert half.nodes.tobytes() == quad.nodes[len(lower) :].tobytes()
        assert half.weights.tobytes() == (2.0 * quad.weights[len(lower) :]).tobytes()
        if dim >= 3:
            assert np.all(half.nodes[:, -1] > 0.0)
        nearest = half.nodes[np.argmin(lower @ half.nodes.T, axis=1)]
        assert np.max(np.linalg.norm(lower + nearest, axis=1)) <= 1e-14

    @pytest.mark.parametrize("dim, res", [(2, 721), (3, 63)])
    def test_odd_resolution_comes_back_whole(self, dim, res):
        quad = build_quadrature(dim, res)
        assert hemisphere(quad) is quad

    def test_hand_built_rule_comes_back_whole(self):
        quad = build_quadrature(3, 16)
        hand = SphereQuadrature(3, quad.nodes, quad.weights)
        assert hemisphere(hand) is hand
        with pytest.raises(TypeError):  # a hand-built rule cannot claim a resolution
            SphereQuadrature(3, quad.nodes, quad.weights, 16)
        half = hemisphere(quad)
        assert hemisphere(half) is half

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4))
    def test_half_rule_integrals_match_the_full_rule(self, seed, dim, m):
        # every integrand is even, so the half rule at doubled weights
        # gives the full rule's sums up to the antipodes' few-ulp offsets
        scene = conditioned_scene(seed, m, 3.0, dim)
        quad = build_quadrature(dim, {2: 64, 3: 24, 4: 10, 5: 6}[dim])
        integrals = [volume_divergence, surface_area, volume_term_charts]
        if dim <= 3:
            integrals.append(gaussian_curvature_integral)
        if dim == 3:
            integrals += [mean_curvature_integral, steiner.volume_sum_3d_mixed]
        half = [f(scene, quad) for f in integrals]
        with mock.patch.object(quadrature, "hemisphere", lambda q: q):
            full = [f(scene, quad) for f in integrals]
        for f, h, w in zip(integrals, half, full):
            assert h == pytest.approx(w, rel=1e-10), f.__name__


class TestSurfaceArea:
    def test_unit_sphere_area(self):
        sc = EllipsoidSum.from_matrices([np.eye(3)])
        val = surface_area(sc, build_quadrature(3, 32))
        assert val == pytest.approx(4 * math.pi, rel=1e-12)

    def test_circle_perimeter(self):
        sc = EllipsoidSum.from_matrices([1.7 * np.eye(2)])
        val = surface_area(sc, build_quadrature(2, 64))
        assert val == pytest.approx(2 * math.pi * 1.7, rel=1e-12)

    def test_pair_perimeter_vs_polyline(self, example_scene):
        perim = surface_area(example_scene, build_quadrature(2, 512))
        oracle = polyline_perimeter(example_scene, 20_000)
        assert perim == pytest.approx(oracle, rel=1e-6)

    def test_dimension_mismatch(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        with pytest.raises(ValueError):
            surface_area(sc, build_quadrature(3, 8))

    def test_ball(self):
        sc = EllipsoidSum.from_matrices([2.0 * np.eye(3)])
        assert surface_area(sc, build_quadrature(3, 48)) == pytest.approx(
            16 * math.pi, abs=1e-8
        )

    def test_ball_pair(self):
        sc = EllipsoidSum.from_matrices([np.eye(3), 2.0 * np.eye(3)])
        assert surface_area(sc, build_quadrature(3, 48)) == pytest.approx(
            36 * math.pi, rel=1e-10
        )

    def test_prolate_spheroid(self):
        sc = EllipsoidSum.from_matrices([np.diag([1.0, 1.0, 2.0])])
        area = surface_area(sc, build_quadrature(3, 64))
        assert area == pytest.approx(prolate_area(1.0, 2.0), rel=1e-6)

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 1e2, 1e3])
    def test_single_ellipsoids_in_the_plain_sum_chart(self, kappa):
        # the chart follows the ellipsoid, so the default rule resolves even
        # kappa = 1e3, where the plain sphere of normals missed by 335%; over
        # 3,000 draws with kappa <= 1e3 the error peaked at 2.0e-4 in 3D
        # (r = 64) and 3.9e-5 in 2D (r = 256)
        rng = np.random.default_rng(140)
        for _ in range(5):
            a = conditioned_spd(rng, kappa, dim=3)
            area = surface_area(EllipsoidSum.from_matrices([a]), quadrature.default_quadrature(3))
            assert area == pytest.approx(steiner._ellipsoid_area(SpdMatrix(a)), rel=5e-4)
            a = conditioned_spd(rng, kappa, dim=2)
            lo, hi = np.linalg.eigvalsh(a)
            exact = 4.0 * hi * ellipe(1.0 - (lo / hi) ** 2)
            perim = surface_area(EllipsoidSum.from_matrices([a]), quadrature.default_quadrature(2))
            assert perim == pytest.approx(exact, rel=1e-4)

    def test_resolution_convergence(self):
        rng = np.random.default_rng(40)
        sc = random_scene(rng, 3, 2)
        a48 = surface_area(sc, build_quadrature(3, 48))
        a96 = surface_area(sc, build_quadrature(3, 96))
        assert abs(a96 - a48) < 1e-6 * abs(a96)
        sc2 = random_scene(rng, 2, 2)
        p64 = surface_area(sc2, build_quadrature(2, 64))
        p128 = surface_area(sc2, build_quadrature(2, 128))
        assert abs(p128 - p64) < 1e-6 * abs(p128)


class TestMeanCurvatureIntegral:
    def test_ball(self):
        sc = EllipsoidSum.from_matrices([1.5 * np.eye(3)])
        val = mean_curvature_integral(sc, build_quadrature(3, 32))
        assert val == pytest.approx(4 * math.pi * 1.5, rel=1e-12)

    def test_additive_over_terms(self):
        rng = np.random.default_rng(41)
        quad = build_quadrature(3, 32)
        a = random_scene(rng, 3, 1)
        b = random_scene(rng, 3, 1)
        both = EllipsoidSum.from_matrices([a.stack[0], b.stack[0]])
        total = mean_curvature_integral(both, quad)
        parts = mean_curvature_integral(a, quad) + mean_curvature_integral(b, quad)
        assert total == pytest.approx(parts, rel=1e-10)

    def test_prolate_spheroid(self):
        sc = EllipsoidSum.from_matrices([np.diag([1.0, 1.0, 2.0])])
        val = mean_curvature_integral(sc, build_quadrature(3, 64))
        assert val == pytest.approx(prolate_mean_curvature_integral(1.0, 2.0), rel=1e-5)

    def test_requires_3d(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        with pytest.raises(ValueError):
            mean_curvature_integral(sc, build_quadrature(2, 8))

    def test_closed_form_on_conditioned_terms(self):
        # sum_i 4 pi R_G(lambda_i^2); the quadrature of tr C / 2 missed it by
        # 1.9e-2 at the default resolution on three kappa = 300 terms
        rng = np.random.default_rng(260)
        mats = [conditioned_spd(rng, 300.0, dim=3) for _ in range(3)]
        exact = sum(4 * math.pi * elliprg(*np.linalg.eigvalsh(a) ** 2) for a in mats)
        val = mean_curvature_integral(EllipsoidSum.from_matrices(mats), quadrature.default_quadrature(3))
        assert val == pytest.approx(exact, rel=1e-12)


class TestGaussianCurvatureIntegral:
    def test_gauss_bonnet_2d(self):
        rng = np.random.default_rng(42)
        quad = build_quadrature(2, 256)
        for _ in range(5):
            sc = random_scene(rng, 2, int(rng.integers(1, 4)))
            assert gaussian_curvature_integral(sc, quad) == pytest.approx(
                2 * math.pi, abs=1e-8
            )

    def test_gauss_bonnet_3d(self):
        rng = np.random.default_rng(43)
        quad = build_quadrature(3, 64)
        for _ in range(5):
            sc = random_scene(rng, 3, int(rng.integers(1, 4)))
            assert gaussian_curvature_integral(sc, quad) == pytest.approx(
                4 * math.pi, abs=1e-6
            )

    def test_unit_sphere(self):
        sc = EllipsoidSum.from_matrices([np.eye(3)])
        val = gaussian_curvature_integral(sc, build_quadrature(3, 32))
        assert val == pytest.approx(4 * math.pi, rel=1e-12)


class TestVolumeDivergence:
    def test_ball(self):
        sc = EllipsoidSum.from_matrices([2.0 * np.eye(3)])
        val = volume_divergence(sc, build_quadrature(3, 48))
        assert val == pytest.approx((4.0 / 3.0) * math.pi * 8.0, abs=1e-8)

    def test_single_ellipse(self):
        sc = EllipsoidSum.from_matrices([np.diag([5.0, 0.5])])
        val = volume_divergence(sc, build_quadrature(2, 256))
        assert val == pytest.approx(math.pi * 2.5, rel=1e-10)

    def test_single_term_determinant(self):
        rng = np.random.default_rng(44)
        for dim, res in ((2, 256), (3, 96)):
            sc = random_scene(rng, dim, 1)
            val = volume_divergence(sc, build_quadrature(dim, res))
            expected = unit_ball_volume(dim) * np.linalg.det(sc.stack[0])
            assert val == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16), (4, 8), (5, 8)])
    def test_single_ellipsoid_exact_in_chart(self, dim, res):
        # in the chart of the term itself the integrand is the constant
        # det A, so even a coarse rule is exact for any condition number
        rng = np.random.default_rng(46)
        quad = build_quadrature(dim, res)
        for kappa in (1.0, 10.0, 100.0, 1e3):
            q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            lam = rng.uniform(0.5, 2.0) * np.geomspace(1.0, kappa, dim)
            a = q @ np.diag(lam) @ q.T
            val = volume_divergence(EllipsoidSum.from_matrices([a]), quad)
            expected = unit_ball_volume(dim) * np.prod(lam)
            assert val == pytest.approx(expected, rel=1e-10)

    def test_area_factors_positive(self):
        from minksum.curvature import area_factors
        from minksum.geometry import term_norms

        rng = np.random.default_rng(45)
        for dim, res in ((2, 64), (3, 16)):
            sc = random_scene(rng, dim, 3)
            n = build_quadrature(dim, res).nodes.T
            dets = area_factors(sc, n, term_norms(sc.stack, n))
            assert np.all(dets > 0)


class TestVolumeTermCharts:
    @pytest.mark.parametrize("dim, res", [(3, 24), (4, 8)])
    def test_ball_sums_exact(self, dim, res):
        # every chart is the identity and every share is 1/m, so each piece
        # integrates a constant
        quad = build_quadrature(dim, res)
        for radii in ((1.0, 2.5), (0.3, 1.0, 4.0), (1.0, 1.0, 2.0, 0.5)):
            sc = EllipsoidSum.from_matrices([r * np.eye(dim) for r in radii])
            expected = unit_ball_volume(dim) * sum(radii) ** dim
            assert volume_term_charts(sc, quad) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dim, res", [(2, 32), (3, 16), (4, 8)])
    def test_single_ellipsoid_exact(self, dim, res):
        rng = np.random.default_rng(47)
        quad = build_quadrature(dim, res)
        for kappa in (1.0, 100.0, 1e4):
            q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            lam = rng.uniform(0.5, 2.0) * np.geomspace(1.0, kappa, dim)
            sc = EllipsoidSum.from_matrices([q @ np.diag(lam) @ q.T])
            expected = unit_ball_volume(dim) * np.prod(lam)
            assert volume_term_charts(sc, quad) == pytest.approx(expected, rel=1e-10)

    def test_converges_to_plain_chart_when_well_conditioned(self):
        # the plain chart is already converged at resolution 128 here; the
        # split pieces are less smooth, so the per-term rule needs more nodes
        rng = np.random.default_rng(48)
        for m in (2, 3, 5):
            sc = random_scene(rng, 3, m)
            ref = volume_divergence(sc, build_quadrature(3, 128))
            assert volume_term_charts(sc, build_quadrature(3, 256)) == pytest.approx(ref, rel=1e-9)

    def test_term_order_does_not_matter(self):
        rng = np.random.default_rng(49)
        sc = random_scene(rng, 3, 4)
        quad = build_quadrature(3, 64)
        flipped = EllipsoidSum(sc.terms[::-1])
        assert volume_term_charts(flipped, quad) == pytest.approx(
            volume_term_charts(sc, quad), rel=1e-13
        )


def fresh(integral, scene, quad):
    """`integral` from a pass of its own: nothing held from an earlier call."""
    quadrature._pending.clear()
    return integral(scene, quad)


class CountPasses:
    """Counts `curvature.area_factors` calls: one per block of a pass."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = curvature.area_factors

        def counting(*args):
            self.calls += 1
            return inner(*args)

        monkeypatch.setattr(curvature, "area_factors", counting)


def volume_op(scene):
    """The `minksum volume` computation: fine volume, coarse volume, fine area."""
    res = quadrature.default_resolution(scene.dim)
    quad, coarse = build_quadrature(scene.dim, res), build_quadrature(scene.dim, res // 2)
    value = volume_divergence(scene, quad)
    payload = {
        "value": value,
        "refinement_delta": value - volume_divergence(scene, coarse),
        "surface_area": surface_area(scene, quad),
    }
    if scene.dim <= 3:
        payload["total_curvature"] = gaussian_curvature_integral(scene, quad)
    return payload


class TestPlainChartHandover:
    # (dim, resolution): even and odd, one even rule of two blocks per half
    RULES = [(2, 32), (2, 33), (3, 16), (3, 17), (3, 130), (4, 8), (4, 9), (5, 6), (5, 7)]
    CASES = [(dim, res, m) for dim, res in RULES for m in (1, 2, 3, 4)]

    @pytest.mark.parametrize("dim, res, m", CASES)
    def test_either_order_gives_fresh_bits(self, dim, res, m):
        sc = random_scene(np.random.default_rng([dim, res, m]), dim, m)
        quad = build_quadrature(dim, res)
        volume, area = fresh(volume_divergence, sc, quad), fresh(surface_area, sc, quad)
        quadrature._pending.clear()
        assert volume_divergence(sc, quad) == volume and surface_area(sc, quad) == area
        quadrature._pending.clear()
        assert surface_area(sc, quad) == area and volume_divergence(sc, quad) == volume

    def test_interleaved_scenes_and_rules_give_fresh_bits(self):
        rng = np.random.default_rng(3802)
        pairs = [
            (random_scene(rng, dim, m), build_quadrature(dim, res))
            for dim, res in self.RULES
            for m in (1, 3)
        ]
        calls = [(f, i) for i in range(len(pairs)) for f in (volume_divergence, surface_area)]
        expected = {(f, i): fresh(f, *pairs[i]) for f, i in calls}
        quadrature._pending.clear()
        for k in rng.permutation(len(calls)):
            f, i = calls[k]
            assert f(*pairs[i]) == expected[f, i]
            assert len(quadrature._pending) <= 2

    def test_equal_scenes_do_not_share_a_pass(self, monkeypatch):
        rng = np.random.default_rng(3803)
        mats = [conditioned_spd(rng, 30.0) for _ in range(3)]
        first, second = EllipsoidSum.from_matrices(mats), EllipsoidSum.from_matrices(mats)
        assert first == second and hash(first) == hash(second)  # the pass is keyed by identity
        quad = build_quadrature(3, 16)
        area = fresh(surface_area, first, quad)
        quadrature._pending.clear()
        count = CountPasses(monkeypatch)
        volume_divergence(first, quad)
        assert surface_area(second, quad) == area
        assert count.calls == 2
        assert surface_area(first, quad) == area
        assert count.calls == 2

    def test_hand_built_rule_recomputes(self, monkeypatch):
        sc = random_scene(np.random.default_rng(3804), 3, 2)
        rule = build_quadrature(3, 16)
        quad = SphereQuadrature(3, rule.nodes.copy(), rule.weights.copy())
        count = CountPasses(monkeypatch)
        volume_divergence(sc, quad)
        quad.weights[::2] *= 0.5
        area = surface_area(sc, quad)
        assert count.calls == 2
        mutated = SphereQuadrature(3, rule.nodes, quad.weights.copy())
        assert area == fresh(surface_area, sc, mutated)
        assert area != fresh(surface_area, sc, rule)

    def test_repeated_call_recomputes(self, monkeypatch):
        # a value is handed over once, and only to the other integral
        sc = random_scene(np.random.default_rng(3805), 3, 3)
        quad = build_quadrature(3, 16)
        expected = {f: fresh(f, sc, quad) for f in (volume_divergence, surface_area)}
        quadrature._pending.clear()
        count = CountPasses(monkeypatch)
        passes = []
        volume, area = volume_divergence, surface_area
        for f in (volume, volume, area, area, volume):
            assert f(sc, quad) == expected[f]
            passes.append(count.calls)
        assert passes == [1, 2, 2, 3, 3]

    def test_dimension_mismatch_raises_on_every_call(self):
        sc = random_scene(np.random.default_rng(3806), 3, 2)
        volume_divergence(sc, build_quadrature(3, 16))
        for _ in range(2):
            for integral in (volume_divergence, surface_area):
                with pytest.raises(ValueError, match="dimension"):
                    integral(sc, build_quadrature(2, 16))

    def test_volume_op_runs_one_pass_per_rule(self, monkeypatch):
        rng = np.random.default_rng(3807)
        scenes = [random_scene(rng, dim, m) for dim in (2, 3, 4) for m in (1, 3)]
        payloads = []
        quadrature._pending.clear()
        count = CountPasses(monkeypatch)
        for _ in range(2):
            payload = []
            for sc in scenes:
                res = quadrature.default_resolution(sc.dim)
                fine, coarse = build_quadrature(sc.dim, res), build_quadrature(sc.dim, res // 2)
                half = [len(hemisphere(q).nodes) for q in (fine, coarse)]
                blocks = sum(-(-k // quadrature._BLOCK) for k in half)
                count.calls = 0
                payload.append(volume_divergence(sc, fine))
                payload.append(volume_divergence(sc, coarse))
                payload.append(surface_area(sc, fine))
                assert count.calls == blocks
                assert len(quadrature._pending) <= 2
            payloads.append(payload)
        assert payloads[0] == payloads[1]


GOLDEN_VOLUME = Path(__file__).with_name("golden_volume.json")


def pin_scenes():
    """24 seeded scenes: N = 2, 3, 4, m = 1..6 and then 1, 2 again, term
    condition numbers log-uniform on [1, 10^2.5]."""
    rng = np.random.default_rng(3801)
    for dim in (2, 3, 4):
        for i in range(8):
            m = 1 + i % 6
            yield EllipsoidSum.from_matrices(
                [conditioned_spd(rng, 10.0 ** rng.uniform(0.0, 2.5), dim) for _ in range(m)]
            )


class TestVolumePayloadPins:
    def test_payload_bits(self):
        # captured before the volume and area integrals shared one pass,
        # under the Haswell OpenBLAS kernels that conftest pins
        golden = json.loads(GOLDEN_VOLUME.read_text())
        scenes = list(pin_scenes())
        assert len(scenes) == len(golden) == 24
        for sc, want in zip(scenes, golden):
            assert (sc.dim, sc.m) == (want["dim"], want["m"])
            got = {key: value.hex() for key, value in volume_op(sc).items()}
            assert got == want["payload"]
