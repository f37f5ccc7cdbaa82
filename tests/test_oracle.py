import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_scene
from minksum.geometry import EllipsoidSum
from minksum.oracle import (
    McEstimate,
    _grid_margin,
    _membership_nodes,
    monte_carlo_volume,
    polyline_perimeter,
)
from minksum.quadrature import build_quadrature, volume_divergence
from minksum.steiner import area_sum_2d_pair, elliptic_E
from minksum.spd import SpdMatrix


class TestMonteCarloVolume:
    def test_unit_disk(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        est = monte_carlo_volume(sc, 1_000_000, seed=101)
        assert abs(est.value - math.pi) <= 3 * est.std_error

    def test_example_pair(self, example_pair):
        a, b = example_pair
        sc = EllipsoidSum.from_matrices([a.entries, b.entries])
        est = monte_carlo_volume(sc, 1_000_000, seed=102)
        assert abs(est.value - area_sum_2d_pair(a, b)) <= 3 * est.std_error

    def test_3d_scene(self):
        from minksum import bounds

        sc = EllipsoidSum.from_matrices([np.diag([1.0, 1.0, 2.0]), np.eye(3)])
        est = monte_carlo_volume(sc, 500_000, seed=103)
        truth = volume_divergence(sc, build_quadrature(3, 64))
        # ambiguous band samples are counted as inside, biasing the
        # estimate upward by at most their box-volume share
        outer = bounds.minvol_outer(sc).entries
        box = float(np.prod(2 * np.sqrt(np.diag(outer @ outer))))
        bias = box * est.ambiguous / est.samples
        assert abs(est.value - truth) <= 4 * est.std_error + bias

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(87)
        sc = random_scene(rng, 2, 2)
        a = monte_carlo_volume(sc, 100_000, seed=7)
        b = monte_carlo_volume(sc, 100_000, seed=7)
        assert a == b

    def test_seed_changes_estimate(self):
        rng = np.random.default_rng(88)
        sc = random_scene(rng, 2, 2)
        a = monte_carlo_volume(sc, 50_000, seed=1)
        b = monte_carlo_volume(sc, 50_000, seed=2)
        assert a.value != b.value

    def test_std_error_contract(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        est = monte_carlo_volume(sc, 200_000, seed=11)
        assert isinstance(est, McEstimate)
        assert est.samples == 200_000
        assert est.seed == 11
        assert est.std_error > 0
        assert est.ambiguous >= 0

    def test_consistency_random_scenes(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            sc = random_scene(rng, dim, int(rng.integers(1, 3)))
            est = monte_carlo_volume(sc, 200_000, seed=int(rng.integers(1 << 30)))
            quad = build_quadrature(dim, 256 if dim == 2 else 64)
            truth = volume_divergence(sc, quad)
            assert abs(est.value - truth) <= 4 * est.std_error + 1e-2 * truth

    def test_minimum_samples(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        with pytest.raises(ValueError):
            monte_carlo_volume(sc, 10, seed=0)

    def test_rejects_dim_above_3(self):
        sc = EllipsoidSum.from_matrices([np.eye(4)])
        with pytest.raises(ValueError, match="N in"):
            monte_carlo_volume(sc, 1000, seed=0)


def spd_with_condition(rng, dim, cond):
    """Random SPD matrix with log-spaced spectrum of condition number cond."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    lam = np.geomspace(1.0, cond, dim) / math.sqrt(cond)
    return q @ np.diag(lam) @ q.T


class TestMonteCarloGolden:
    # McEstimate (value, std_error, ambiguous) captured from the unblocked
    # membership kernel (one dense x @ nodes.T per batch, full Gram margin)
    # before the row-blocked rewrite.  The scene of each case is drawn from
    # default_rng(seed).  Undecided samples per 32,768-sample batch: case 1
    # has 2 and 5 (a lone partial block), none of the others is a multiple
    # of 128; cases 3 and 6 span three and four batches.
    CASES = [
        (2, 1, 1.0, 50_000, 11, 3.143040000000001, 0.007339563418078764, 0),
        (2, 2, 10.0, 40_000, 12, 43.81330496970518, 0.19946763366287143, 3),
        (2, 4, 300.0, 70_000, 13, 5660.463012548307, 17.76382064100742, 8),
        (2, 6, 3e3, 40_000, 14, 122663.99392372783, 532.8645058387815, 4),
        (3, 1, 30.0, 40_000, 15, 4.341428307896148, 0.08897681092446118, 59),
        (3, 2, 3.0, 100_000, 16, 37.59397401058961, 0.15652417559727216, 448),
        (3, 3, 3e3, 40_000, 17, 119709.98682185779, 2605.592066827922, 174),
        (3, 5, 100.0, 40_000, 18, 47494.87891551425, 371.05724039163255, 151),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"N{c[0]}-m{c[1]}-s{c[4]}")
    def test_bitwise_unchanged(self, case):
        dim, m, cond, samples, seed, value, std_error, ambiguous = case
        rng = np.random.default_rng(seed)
        sc = EllipsoidSum.from_matrices(
            [spd_with_condition(rng, dim, cond) for _ in range(m)]
        )
        assert monte_carlo_volume(sc, samples, seed) == McEstimate(
            value=value,
            std_error=std_error,
            samples=samples,
            seed=seed,
            ambiguous=ambiguous,
        )

    @staticmethod
    def full_gram_margin(nodes, h_max):
        gram = nodes @ nodes.T
        np.fill_diagonal(gram, -1.0)
        cos_gap = float(np.min(np.max(gram, axis=1)))
        half_angle = math.acos(min(cos_gap, 1.0))
        return 2.0 * h_max * (1.0 / math.cos(half_angle) - 1.0 + 1e-15)

    @pytest.mark.parametrize(
        "nodes",
        [
            _membership_nodes(2),
            _membership_nodes(3),
            build_quadrature(3, 23).nodes,
        ],
        ids=["default-2d", "default-3d", "3d-res23"],
    )
    def test_grid_margin_matches_full_gram(self, nodes):
        assert _grid_margin(nodes, 2.5) == self.full_gram_margin(nodes, 2.5)

    def test_peak_memory_bounded(self):
        sc = random_scene(np.random.default_rng(90), 3, 3)
        tracemalloc.start()
        try:
            monte_carlo_volume(sc, 400_000, seed=19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPolylinePerimeter:
    def test_unit_disk(self):
        sc = EllipsoidSum.from_matrices([np.eye(2)])
        assert polyline_perimeter(sc, 10_000) == pytest.approx(2 * math.pi, rel=1e-7)

    def test_ellipse_elliptic_integral(self):
        sc = EllipsoidSum.from_matrices([np.diag([2.0, 1.0])])
        expected = 4 * 2.0 * elliptic_E(math.sqrt(1 - 0.25))
        assert polyline_perimeter(sc, 50_000) == pytest.approx(expected, rel=1e-6)

    def test_example_pair_vs_quadrature(self, example_scene):
        from minksum.quadrature import surface_area

        perim = surface_area(example_scene, build_quadrature(2, 512))
        assert polyline_perimeter(example_scene, 20_000) == pytest.approx(
            perim, rel=1e-6
        )

    def test_requires_2d(self):
        sc = EllipsoidSum.from_matrices([np.eye(3)])
        with pytest.raises(ValueError):
            polyline_perimeter(sc, 100)
