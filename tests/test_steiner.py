import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import ellipe

from conftest import random_spd
from minksum.geometry import EllipsoidSum
from minksum.quadrature import build_quadrature, volume_divergence
from minksum.steiner import (
    area_sum_2d_pair,
    area_sum_2d_recursive,
    elliptic_E,
    volume_sum_3d_bounds,
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


class TestAreaRecursive2d:
    def test_single_term(self):
        sc = EllipsoidSum.from_matrices([np.diag([2.0, 3.0])])
        assert area_sum_2d_recursive(sc) == pytest.approx(6 * math.pi, rel=1e-14)

    def test_matches_pair_formula(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            a, b = random_spd(rng, 2), random_spd(rng, 2)
            sc = EllipsoidSum.from_matrices([a, b])
            assert area_sum_2d_recursive(sc) == pytest.approx(
                area_sum_2d_pair(SpdMatrix(a), SpdMatrix(b)), rel=1e-9
            )

    def test_triple_matches_divergence(self):
        rng = np.random.default_rng(83)
        quad = build_quadrature(2, 1024)
        for _ in range(10):
            sc = EllipsoidSum.from_matrices([random_spd(rng, 2) for _ in range(3)])
            assert area_sum_2d_recursive(sc) == pytest.approx(
                volume_divergence(sc, quad), rel=1e-6
            )

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
        quad = build_quadrature(3, 48)
        val = volume_sum_3d_pair(SpdMatrix(np.eye(3)), SpdMatrix(2 * np.eye(3)), quad)
        assert val == pytest.approx(4.0 / 3.0 * math.pi * 27, rel=1e-10)

    def test_homothetic_spheroids(self):
        quad = build_quadrature(3, 48)
        a = SpdMatrix(np.diag([1.0, 1.0, 2.0]))
        val = volume_sum_3d_pair(a, a, quad)
        vol1 = 4.0 / 3.0 * math.pi * 2.0
        assert val == pytest.approx(8 * vol1, rel=1e-8)

    def test_operand_order_and_divergence(self):
        # moderate spectra: the scaled body A2^-1 E_1 drives the quadrature
        # cost, its condition number being the product of the two
        rng = np.random.default_rng(85)
        quad = build_quadrature(3, 160)
        for _ in range(10):
            a = SpdMatrix(random_spd(rng, 3, 0.5, 2.0))
            b = SpdMatrix(random_spd(rng, 3, 0.5, 2.0))
            ab = volume_sum_3d_pair(a, b, quad)
            ba = volume_sum_3d_pair(b, a, quad)
            assert ab == pytest.approx(ba, rel=1e-8)
            sc = EllipsoidSum.from_matrices([a.entries, b.entries])
            assert ab == pytest.approx(volume_divergence(sc, quad), rel=1e-7)

    def test_wrong_dimension(self):
        quad = build_quadrature(3, 16)
        with pytest.raises(ValueError):
            volume_sum_3d_pair(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(2)), quad)


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

    def test_requires_three_terms(self):
        quad = build_quadrature(3, 16)
        with pytest.raises(ValueError):
            volume_sum_3d_bounds(EllipsoidSum.from_matrices([np.eye(3)] * 2), quad)
