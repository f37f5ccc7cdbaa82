import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import ellipe, elliprg

from conftest import (
    conditioned_scene,
    conditioned_spd,
    random_rotation,
    random_scene,
    random_spd,
)
from minksum.bounds import volume_bounds
from minksum.geometry import EllipsoidSum, transform_scene
from minksum.quadrature import build_quadrature, unit_ball_volume, volume_divergence
from minksum.steiner import (
    _carlson_rg,
    _ellipsoid_area,
    _triple_terms,
    area_sum_2d_pair,
    area_sum_2d_recursive,
    elliptic_E,
    mixed_volumes_3d,
    volume_sum_3d_bounds,
    volume_sum_3d_mixed,
    volume_sum_3d_pair,
)
from minksum.spd import SpdMatrix


class TestEllipticE:
    def test_endpoints(self):
        assert elliptic_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert elliptic_E(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_against_defining_integral(self):
        for x in (0.1, 0.5, 0.9):
            ref, _ = scipy_quad(
                lambda t: math.sqrt(1.0 - x * x * math.sin(t) ** 2),
                0.0,
                math.pi / 2,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert elliptic_E(x) == pytest.approx(ref, abs=1e-12)

    def test_against_scipy_ellipe(self):
        # the AGM against scipy's E(m = x^2), with moduli within 1e-16 of 0 and 1
        tiny = np.logspace(-16, -1, 61)
        grid = np.concatenate([np.linspace(0.0, 1.0, 2001), tiny, 1.0 - tiny])
        for x in grid:
            ref = ellipe(x * x)
            assert abs(elliptic_E(float(x)) - ref) <= 1e-14 * ref

    def test_domain(self):
        with pytest.raises(ValueError):
            elliptic_E(1.5)
        with pytest.raises(ValueError):
            elliptic_E(-0.1)


class TestAreaPair2d:
    def test_two_balls(self):
        val = area_sum_2d_pair(SpdMatrix(np.eye(2)), SpdMatrix(2 * np.eye(2)))
        assert val == pytest.approx(9 * math.pi, rel=1e-13)

    def test_unit_ball_twice(self):
        val = area_sum_2d_pair(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)))
        assert val == pytest.approx(4 * math.pi, rel=1e-13)

    def test_example_pair(self, example_pair):
        a, b = example_pair
        val = area_sum_2d_pair(a, b)
        assert val == pytest.approx(134.64183305, rel=1e-8)
        assert val > 113.14
        quad = build_quadrature(2, 1024)
        sc = EllipsoidSum.from_matrices([a.entries, b.entries])
        assert val == pytest.approx(volume_divergence(sc, quad), rel=1e-6)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            a = SpdMatrix(random_spd(rng, 2))
            b = SpdMatrix(random_spd(rng, 2))
            assert area_sum_2d_pair(a, b) == pytest.approx(
                area_sum_2d_pair(b, a), rel=1e-10
            )

    def test_brunn_minkowski_end_term(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            a = SpdMatrix(random_spd(rng, 2))
            b = SpdMatrix(random_spd(rng, 2))
            area = area_sum_2d_pair(a, b)
            end = math.sqrt(math.pi * a.det()) + math.sqrt(math.pi * b.det())
            assert math.sqrt(area) >= end - 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            area_sum_2d_pair(SpdMatrix(np.eye(3)), SpdMatrix(np.eye(3)))


def mixed_area_reference(mpmath, stack):
    """pi sum_i det A_i + sum_{i<j} det A_j 4 sigma_1 E(1 - sigma_2^2 / sigma_1^2),
    sigma the singular values of A_j^-1 A_i, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        mats = [mpmath.matrix(a.tolist()) for a in stack]
        dets = [mpmath.det(a) for a in mats]
        total = mpmath.pi * mpmath.fsum(dets)
        for i, j in itertools.combinations(range(len(mats)), 2):
            sigma = sorted(mpmath.svd_r(mpmath.inverse(mats[j]) * mats[i], compute_uv=False))
            total += dets[j] * 4 * sigma[1] * mpmath.ellipe(1 - (sigma[0] / sigma[1]) ** 2)
        return float(total)


class TestAreaRecursive2d:
    def test_single_term(self):
        sc = EllipsoidSum.from_matrices([np.diag([2.0, 3.0])])
        assert area_sum_2d_recursive(sc) == pytest.approx(6 * math.pi, rel=1e-14)

    def test_matches_pair_formula(self):
        # the paper's pair formula pi (det A1 + det A2) + det A2 L(sigma),
        # sigma the singular values of A2^-1 A1, with L = 4 sigma_1
        # E(1 - sigma_2^2 / sigma_1^2) from scipy
        rng = np.random.default_rng(82)
        for _ in range(30):
            a, b = random_spd(rng, 2), random_spd(rng, 2)
            sigma = np.linalg.svd(np.linalg.solve(b, a), compute_uv=False)
            perimeter = 4.0 * sigma[0] * ellipe(1.0 - (sigma[1] / sigma[0]) ** 2)
            det_a, det_b = np.linalg.det(a), np.linalg.det(b)
            ref = math.pi * (det_a + det_b) + det_b * perimeter
            sc = EllipsoidSum.from_matrices([a, b])
            assert area_sum_2d_recursive(sc) == pytest.approx(ref, rel=1e-13)

    def test_triple_matches_divergence(self):
        rng = np.random.default_rng(83)
        quad = build_quadrature(2, 1024)
        for _ in range(10):
            sc = EllipsoidSum.from_matrices([random_spd(rng, 2) for _ in range(3)])
            assert area_sum_2d_recursive(sc) == pytest.approx(
                volume_divergence(sc, quad), rel=1e-6
            )

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    @pytest.mark.parametrize("small_first", [False, True])
    def test_extreme_magnitude_ratio(self, scale, small_first):
        # |A_j^-1 A_i|_F^2 and det A_i / det A_j under- or overflow here, so
        # the area read NaN; the tiny term adds about `scale` times the area
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        tiny = scale * np.array([[1.0, -0.2], [-0.2, 3.0]])
        sc = EllipsoidSum.from_matrices([tiny, a] if small_first else [a, tiny])
        area = area_sum_2d_recursive(sc)
        assert math.isfinite(area)
        assert area == pytest.approx(math.pi * np.linalg.det(a), rel=1e-15)

    @pytest.mark.filterwarnings("ignore:ellipsoid .* condition number:UserWarning")
    @pytest.mark.parametrize("kappa", [1e9, 10**9.9])
    def test_conditioned_terms_match_extended_precision(self, kappa):
        # every term near the parser's limit: det M of the solved ratio
        # M = A_j^-1 A_i lost its sign to rounding here and the area read NaN
        mpmath = pytest.importorskip("mpmath")
        for m, seed in itertools.product(range(2, 7), range(20)):
            rng = np.random.default_rng([seed, m])
            sc = EllipsoidSum.from_matrices([conditioned_spd(rng, kappa, 2) for _ in range(m)])
            ref = mixed_area_reference(mpmath, sc.stack)
            assert area_sum_2d_recursive(sc) == pytest.approx(ref, rel=1e-9)

    def test_perimeter_additivity(self):
        # the 2D boundary measure of a pair is the sum of the ellipse perimeters
        rng = np.random.default_rng(84)
        from minksum.quadrature import surface_area

        quad = build_quadrature(2, 512)
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        both = EllipsoidSum.from_matrices([a, b])
        parts = surface_area(EllipsoidSum.from_matrices([a]), quad) + surface_area(
            EllipsoidSum.from_matrices([b]), quad
        )
        assert surface_area(both, quad) == pytest.approx(parts, rel=1e-9)


class TestVolumePair3d:
    def test_two_balls(self):
        val = volume_sum_3d_pair(SpdMatrix(np.eye(3)), SpdMatrix(2 * np.eye(3)))
        assert val == pytest.approx(4.0 / 3.0 * math.pi * 27, rel=1e-10)

    def test_homothetic_spheroids(self):
        a = SpdMatrix(np.diag([1.0, 1.0, 2.0]))
        val = volume_sum_3d_pair(a, a)
        vol1 = 4.0 / 3.0 * math.pi * 2.0
        assert val == pytest.approx(8 * vol1, rel=1e-8)

    def test_operand_order_and_divergence(self):
        rng = np.random.default_rng(85)
        quad = build_quadrature(3, 160)
        for _ in range(10):
            a = SpdMatrix(random_spd(rng, 3, 0.5, 2.0))
            b = SpdMatrix(random_spd(rng, 3, 0.5, 2.0))
            ab = volume_sum_3d_pair(a, b)
            ba = volume_sum_3d_pair(b, a)
            assert ab == pytest.approx(ba, rel=1e-8)
            sc = EllipsoidSum.from_matrices([a.entries, b.entries])
            assert ab == pytest.approx(volume_divergence(sc, quad), rel=1e-7)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            volume_sum_3d_pair(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)))


class TestVolumeBounds3d:
    def test_three_balls(self):
        quad = build_quadrature(3, 48)
        sc = EllipsoidSum.from_matrices([np.eye(3), 2 * np.eye(3), 0.5 * np.eye(3)])
        rep = volume_sum_3d_bounds(sc, quad)
        exact = 4.0 / 3.0 * math.pi * 3.5**3
        assert rep.exact_value == pytest.approx(exact, rel=1e-8)
        assert rep.lower == pytest.approx(exact, rel=1e-7)
        assert rep.upper == pytest.approx(exact, rel=1e-7)

    def test_sandwich_random(self):
        rng = np.random.default_rng(86)
        quad = build_quadrature(3, 128)
        for _ in range(5):
            sc = EllipsoidSum.from_matrices([random_spd(rng, 3) for _ in range(3)])
            rep = volume_sum_3d_bounds(sc, quad)
            vol = volume_divergence(sc, quad)
            assert rep.lower <= vol * (1 + 1e-9)
            assert vol <= rep.upper * (1 + 1e-9)
            assert rep.exact_value == pytest.approx(vol, rel=1e-5)

    def test_commuting_diagonals(self):
        quad = build_quadrature(3, 192)
        mats = [np.diag([1.0, 2.0, 1.5]), np.diag([2.0, 0.5, 1.0]), np.diag([1.0, 1.0, 2.0])]
        sc = EllipsoidSum.from_matrices(mats)
        rep = volume_sum_3d_bounds(sc, quad)
        assert rep.exact_value == pytest.approx(volume_divergence(sc, quad), rel=1e-7)

    def test_components_reported(self):
        quad = build_quadrature(3, 32)
        sc = EllipsoidSum.from_matrices([np.eye(3)] * 3)
        rep = volume_sum_3d_bounds(sc, quad)
        assert len(rep.components) == 2
        last = rep.components[-1]
        assert {"area_exact", "area_lower", "area_upper"} <= set(last)
        assert last["area_lower"] <= last["area_exact"] * (1 + 1e-9)
        assert last["area_exact"] <= last["area_upper"] * (1 + 1e-9)

    @staticmethod
    def _assert_sandwich(rep):
        assert rep.lower <= rep.exact_value * (1 + 1e-9)
        assert rep.exact_value <= rep.upper * (1 + 1e-9)
        for step in rep.components[1:]:
            assert step["area_lower"] <= step["area_exact"] * (1 + 1e-9)
            assert step["area_exact"] <= step["area_upper"] * (1 + 1e-9)

    def test_sandwich_brackets_exact_value(self):
        # the areas of the inner and outer ellipsoids bracket the area of
        # A_k^-1 S_k at every step, with terms up to 1e3
        quad = build_quadrature(3, 64)
        for seed in range(40):
            for log_kappa in (2.0, 3.0):
                self._assert_sandwich(
                    volume_sum_3d_bounds(conditioned_scene(seed, 3 + seed % 3, log_kappa), quad)
                )

    def test_partial_sums_past_the_parser_limit(self):
        # three terms of condition 10^5.5 or 1e6: the products A_i A_k^-1
        # reach condition 1e12, past what the scene parser accepts, yet the
        # sandwich takes only images of each partial sum's own ellipsoids,
        # so it neither raises nor warns
        quad = build_quadrature(3, 64)
        for kappa in (10.0**5.5, 1e6):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", UserWarning)
                    sc = EllipsoidSum.from_matrices([conditioned_spd(rng, kappa) for _ in range(3)])
                    self._assert_sandwich(volume_sum_3d_bounds(sc, quad))

    @pytest.mark.filterwarnings("ignore:ellipsoid .* condition number:UserWarning")
    def test_sandwich_up_to_the_parser_limit(self):
        # m = 3-6 terms, each of condition 10^u with u uniform on [0, 9.9]
        quad = build_quadrature(3, 32)
        for seed in range(40):
            sc = conditioned_scene(seed, 3 + seed % 4, 9.9)
            self._assert_sandwich(volume_sum_3d_bounds(sc, quad))

    def test_requires_three_terms(self):
        quad = build_quadrature(3, 16)
        with pytest.raises(ValueError):
            volume_sum_3d_bounds(EllipsoidSum.from_matrices([np.eye(3)] * 2), quad)


class TestEllipsoidArea:
    @pytest.mark.parametrize("log_kappa, rtol", [(4.0, 1e-13), (9.9, 1e-10)])
    def test_general_matrices(self, log_kappa, rtol):
        # M = R A has the semi-axes of A, its eigenvalues lambda, and the
        # area 4 pi det A R_G(lambda^-2) (DLMF 19.33.1)
        rng = np.random.default_rng(90)
        for _ in range(300):
            a = conditioned_spd(rng, 10.0 ** rng.uniform(0.0, log_kappa))
            lam = np.linalg.eigvalsh(a)
            ref = 4.0 * math.pi * np.prod(lam) * elliprg(*(1.0 / (lam * lam)))
            area = _ellipsoid_area(a)
            assert area == pytest.approx(ref, rel=rtol)
            assert _ellipsoid_area(random_rotation(rng, 3) @ a) == pytest.approx(area, rel=rtol)


class TestCarlsonRG:
    def test_against_elliprg(self):
        # arguments over 24 decades, with repeated and zero ones
        rng = np.random.default_rng(87)
        args = 10.0 ** rng.uniform(-12.0, 12.0, size=(2000, 3))
        args[:100, 1] = args[:100, 0]
        args[100:150] = args[100:150, :1]
        args[150:200, 0] = 0.0
        for x, y, z in args:
            ref = elliprg(x, y, z)
            assert abs(_carlson_rg(x, y, z) - ref) <= 1e-14 * ref


class TestMixedVolumes3d:
    def test_pair_terms_match_elliprg(self):
        # V(E_i, E_i, E_j) = det A_i (4 pi / 3) R_G(s^2), s the singular
        # values of A_i^-1 A_j; term conditions up to 1e3
        for seed in range(40):
            sc = conditioned_scene(seed, 3, 3.0)
            terms = mixed_volumes_3d(sc)
            for i, j in itertools.permutations(range(3), 2):
                a_i, a_j = sc.stack[i], sc.stack[j]
                s = np.linalg.svd(np.linalg.solve(a_i, a_j), compute_uv=False)
                ref = np.linalg.det(a_i) * 4.0 * math.pi / 3.0 * elliprg(*(s * s))
                assert abs(terms[i, i, j] - ref) <= 1e-14 * ref

    def test_symmetric_tensor(self):
        terms = mixed_volumes_3d(random_scene(np.random.default_rng(88), 3, 4))
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(terms, np.transpose(terms, perm))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_plain_chart(self, m):
        # tolerance fixed before the run: rel 1e-8 with the triples at
        # resolution 64, against the plain chart at 512
        sc = random_scene(np.random.default_rng(48), 3, m)
        ref = volume_divergence(sc, build_quadrature(3, 512))
        assert volume_sum_3d_mixed(sc, build_quadrature(3, 64)) == pytest.approx(ref, rel=1e-8)

    def test_odd_resolution(self):
        # an odd rule has no antipodal pairs, so the triple terms run on all of it
        sc = random_scene(np.random.default_rng(89), 3, 3)
        ref = volume_sum_3d_mixed(sc, build_quadrature(3, 128))
        assert volume_sum_3d_mixed(sc, build_quadrature(3, 63)) == pytest.approx(ref, rel=1e-8)

    def test_rule_of_another_dimension(self):
        sc = random_scene(np.random.default_rng(89), 3, 3)
        with pytest.raises(ValueError, match="quadrature dimension 2"):
            mixed_volumes_3d(sc, build_quadrature(2, 64))

    def test_exact_cases(self):
        # balls, one ellipsoid and homothetic terms have constant integrands;
        # what is left is rounding, which grows with the condition number
        quad = build_quadrature(3, 8)
        vb = unit_ball_volume(3)
        radii = (0.3, 1.0, 2.5, 4.0)
        balls = EllipsoidSum.from_matrices([r * np.eye(3) for r in radii])
        assert volume_sum_3d_mixed(balls, quad) == pytest.approx(vb * sum(radii) ** 3, rel=1e-14)
        rng = np.random.default_rng(90)
        for kappa in (1.0, 1e2, 1e4):
            a = conditioned_spd(rng, kappa)
            single = EllipsoidSum.from_matrices([a])
            det = np.linalg.det(single.stack[0])
            assert volume_sum_3d_mixed(single, quad) == pytest.approx(vb * det, rel=1e-14)
            scales = (0.5, 1.0, 3.0)
            homothetic = EllipsoidSum.from_matrices([c * a for c in scales])
            expected = vb * det * sum(scales) ** 3
            assert volume_sum_3d_mixed(homothetic, quad) == pytest.approx(expected, rel=1e-12)

    def test_in_sandwich_at_kappa_1e4_to_1e5(self):
        # 200 scenes of 3-4 terms, every term's condition log-uniform in
        # [1e4, 1e5]: the volume lies in [lower, upper] on every one
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = 3 + seed % 2
            sc = EllipsoidSum.from_matrices(
                [conditioned_spd(rng, 10.0 ** rng.uniform(4.0, 5.0)) for _ in range(m)]
            )
            rep = volume_bounds(sc)
            vol = volume_sum_3d_mixed(sc)
            assert rep.lower_volume <= vol <= rep.upper_volume

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            mixed_volumes_3d(EllipsoidSum.from_matrices([np.eye(2)] * 3))


SEEDS = st.integers(0, 2**32 - 1)


class TestMixedAreaProperties:
    """Invariants of the 2D mixed-area sum, which is exact up to rounding."""

    @given(SEEDS, st.integers(2, 6), st.floats(0.0, 6.0), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, seed, m, log_kappa, rnd):
        sc = conditioned_scene(seed, m, log_kappa, dim=2)
        order = list(range(m))
        rnd.shuffle(order)
        shuffled = EllipsoidSum(tuple(sc.terms[i] for i in order))
        expected = area_sum_2d_recursive(sc)
        assert area_sum_2d_recursive(shuffled) == pytest.approx(expected, rel=1e-12)

    @given(SEEDS, st.integers(1, 6), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
    def test_scales_with_det(self, seed, m, log_kappa, log_s):
        # transform_scene takes each term as |A_i S^T| from an SVD, so no
        # term is squared: with terms up to 1e3 and S up to 10, 20,000
        # seeded scenes drifted by at most 3.3e-13 (single terms, whose det
        # carries about cond * eps), where the eigh root of S A_i^2 S^T
        # drifted by up to 4.3e-10
        sc = conditioned_scene(seed, m, log_kappa, dim=2)
        rng = np.random.default_rng([seed, 1])
        s = conditioned_spd(rng, 10.0**log_s, dim=2) @ random_rotation(rng, 2)
        expected = abs(np.linalg.det(s)) * area_sum_2d_recursive(sc)
        assert area_sum_2d_recursive(transform_scene(sc, s)) == pytest.approx(expected, rel=5e-12)


class TestMixedVolumeProperties:
    """Invariants of the mixed volume, within the triple rule's error.

    At resolution 128 on terms of condition up to 10 the triple terms
    measured errors up to 1.4e-7 and the scaled volume up to 4e-10
    (100 seeded scenes); the tolerances sit above those.
    """

    @given(SEEDS, st.integers(1, 5), st.floats(0.0, 1.0))
    def test_scales_with_det(self, seed, m, log_s):
        sc = conditioned_scene(seed, m, 1.0)
        rng = np.random.default_rng([seed, 1])
        s = conditioned_spd(rng, 10.0**log_s) @ random_rotation(rng, 3)
        quad = build_quadrature(3, 128)
        expected = abs(np.linalg.det(s)) * volume_sum_3d_mixed(sc, quad)
        assert volume_sum_3d_mixed(transform_scene(sc, s), quad) == pytest.approx(expected, rel=1e-8)

    @given(SEEDS, st.integers(2, 6), st.floats(0.0, 3.0), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, seed, m, log_kappa, rnd):
        # the integrated term of each triple follows the terms, not their order
        sc = conditioned_scene(seed, m, log_kappa)
        order = list(range(m))
        rnd.shuffle(order)
        shuffled = EllipsoidSum(tuple(sc.terms[i] for i in order))
        assert volume_sum_3d_mixed(shuffled) == pytest.approx(volume_sum_3d_mixed(sc), rel=1e-12)

    @given(SEEDS, st.integers(3, 5))
    def test_triple_independent_of_roles(self, seed, m):
        sc = conditioned_scene(seed, m, 1.0)
        stack, inv, det = sc.stack, np.linalg.inv(sc.stack), np.linalg.det(sc.stack)
        quad = build_quadrature(3, 128)
        triples = np.array(list(itertools.combinations(range(m), 3)))
        first = _triple_terms(stack, inv, det, triples, quad)
        for roll in (1, 2):
            other = _triple_terms(stack, inv, det, np.roll(triples, roll, axis=1), quad)
            np.testing.assert_allclose(other, first, rtol=1e-6)

    @given(
        SEEDS,
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
        st.floats(0.0, 6.0),
    )
    def test_exact_for_homothetic_terms(self, seed, scales, log_kappa):
        # one scale is one ellipsoid; an identity shape gives balls.  Up to
        # rounding: at condition 1e6, det and the inverses lose digits
        a = conditioned_spd(np.random.default_rng(seed), 10.0**log_kappa)
        sc = EllipsoidSum.from_matrices([c * a for c in scales])
        expected = unit_ball_volume(3) * np.linalg.det(a) * sum(scales) ** 3
        assert volume_sum_3d_mixed(sc, build_quadrature(3, 8)) == pytest.approx(expected, rel=1e-11)
