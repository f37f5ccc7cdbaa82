import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_scene
from minksum import bounds, oracle
from minksum.geometry import EllipsoidSum, boundary_points
from minksum.oracle import McEstimate, _gauge_test, monte_carlo_volume, polyline_perimeter
from minksum.quadrature import build_quadrature, unit_ball_volume, volume_divergence
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
        sc = EllipsoidSum.from_matrices([np.diag([1.0, 1.0, 2.0]), np.eye(3)])
        est = monte_carlo_volume(sc, 500_000, seed=103)
        truth = volume_divergence(sc, build_quadrature(3, 64))
        # samples the gauge test leaves undecided are counted as inside,
        # biasing the estimate upward by at most their box-volume share
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

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["single", "balls"])
    def test_closed_form_every_dim(self, kind, dim):
        rng = np.random.default_rng(110 + dim)
        if kind == "single":
            mats = [spd_with_condition(rng, dim, 10.0)]
            truth = unit_ball_volume(dim) * float(np.linalg.det(mats[0]))
        else:
            mats = [r * np.eye(dim) for r in (0.5, 1.0, 2.0)]
            truth = unit_ball_volume(dim) * 3.5**dim
        sc = EllipsoidSum.from_matrices(mats)
        est = monte_carlo_volume(sc, 200_000, seed=10 * dim + len(mats))
        assert abs(est.value - truth) <= 3 * est.std_error

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_few_ambiguous(self, dim):
        # the gauge steps converge slowest on ill-conditioned terms; at
        # condition <= 30 almost every shell sample is decided
        rng = np.random.default_rng(120 + dim)
        for m in range(2, 7):
            sc = EllipsoidSum.from_matrices(
                [spd_with_condition(rng, dim, 30.0) for _ in range(m)]
            )
            est = monte_carlo_volume(sc, 50_000, seed=m)
            assert est.ambiguous <= 1e-4 * est.samples


def spd_with_condition(rng, dim, cond):
    """Random SPD matrix with log-spaced spectrum of condition number cond."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    lam = np.geomspace(1.0, cond, dim) / math.sqrt(cond)
    return q @ np.diag(lam) @ q.T


class TestGaugeCertificates:
    # Points 1% inside and 1% outside the boundary, started from the
    # outer ellipsoid's normal as the oracle starts them: every point is
    # decided, and on the right side.
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("cond", [3.0, 300.0, 3e3])
    def test_near_boundary_decided(self, dim, cond):
        rng = np.random.default_rng(int(10 * dim + math.log10(cond)))
        for m in (2, 4, 6):
            mats = [spd_with_condition(rng, dim, cond) for _ in range(m)]
            sc = EllipsoidSum.from_matrices(mats)
            outer = bounds.minvol_outer(sc).entries
            outer_q = np.linalg.inv(outer @ outer)
            normals = rng.normal(size=(500, dim))
            points = boundary_points(sc, normals)
            stack = np.stack(mats)
            for scale, expected in ((1 - 1e-2, 500), (1 + 1e-2, 0)):
                x = scale * points
                assert _gauge_test(stack, [x], outer_q) == (expected, 0)


class TestMonteCarloGolden:
    # McEstimate (value, std_error, ambiguous) captured from the gauge-test
    # kernel, under the Haswell OpenBLAS kernels that conftest pins.  The
    # scene of each case is drawn from default_rng(seed); cases 3 and 6
    # span three and four 32,768-sample batches.
    CASES = [
        (2, 1, 1.0, 50_000, 11, 3.143040000000001, 0.007339563418078764, 0),
        (2, 2, 10.0, 40_000, 12, 43.81330496970517, 0.1994676336628714, 0),
        (2, 4, 300.0, 70_000, 13, 5658.413852534111, 17.76526758081552, 4),
        (2, 6, 3e3, 40_000, 14, 122620.94259656324, 532.8948306539919, 3),
        (3, 1, 30.0, 40_000, 15, 4.227434418191709, 0.08786947853318396, 0),
        (3, 2, 3.0, 100_000, 16, 37.5353988112182, 0.15647246018652705, 0),
        (3, 3, 3e3, 40_000, 17, 107768.8410042161, 2478.722281310096, 0),
        (3, 5, 100.0, 40_000, 18, 47266.04701159366, 370.5273425499493, 1),
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

    def test_peak_memory_bounded(self):
        # the second scene is shell-heavy: about 40% of its samples queue
        # for the gauge test
        rng = np.random.default_rng(29)
        shell_heavy = EllipsoidSum.from_matrices(
            [spd_with_condition(rng, 2, 1.5e3) for _ in range(4)]
        )
        cases = ((random_scene(np.random.default_rng(90), 3, 3), 19), (shell_heavy, 29))
        for sc, seed in cases:
            tracemalloc.start()
            try:
                monte_carlo_volume(sc, 400_000, seed=seed)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20


def reference_gauge_test(stack, x, n):
    """The per-batch gauge test the pool replaced: all rows of one batch
    start together and iterate until the slowest is decided or capped."""
    m, dim, _ = stack.shape
    sq = (stack @ stack).reshape(m, dim * dim)
    r = np.linalg.norm(n @ stack, axis=2) / np.sum(x * n, axis=1)
    inside = 0
    for _ in range(oracle._CAP):
        h = ((1.0 / r).T @ sq).reshape(-1, dim, dim)
        n = np.linalg.solve(h, x[:, :, None])[:, :, 0]
        r_new = np.linalg.norm(n @ stack, axis=2)
        x_dot = np.sum(x * n, axis=1)
        is_in = np.max(r_new / r, axis=0) <= 1.0
        live = ~is_in & (x_dot <= np.sum(r_new, axis=0))
        inside += int(np.count_nonzero(is_in))
        x = x[live]
        r = r_new[:, live] / x_dot[live]
        if x.shape[0] == 0:
            break
    return inside, x.shape[0]


def reference_monte_carlo_volume(scene, samples, seed):
    """monte_carlo_volume with one gauge test per sampling batch."""
    outer = bounds.minvol_outer(scene)
    half = np.sqrt(np.diag(outer.entries @ outer.entries))
    box_volume = float(np.prod(2.0 * half))
    inner = bounds.inner_sum_matrix(scene)
    inner_q = np.linalg.inv(inner.entries @ inner.entries)
    outer_q = np.linalg.inv(outer.entries @ outer.entries)
    stack = scene.stack
    hits = ambiguous = done = batch_index = 0
    while done < samples:
        count = min(oracle._BATCH, samples - done)
        rng = np.random.default_rng([seed, batch_index])
        x = rng.uniform(-1.0, 1.0, size=(oracle._BATCH, scene.dim))[:count] * half
        q_in = np.einsum("ki,ij,kj->k", x, inner_q, x)
        q_out = np.einsum("ki,ij,kj->k", x, outer_q, x)
        accept = q_in <= 1.0
        shell = ~accept & (q_out <= 1.0)
        hits += int(np.count_nonzero(accept))
        if np.any(shell):
            xs = x[shell]
            inside, undecided = reference_gauge_test(stack, xs, xs @ outer_q)
            hits += inside + undecided
            ambiguous += undecided
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


class TestGaugePool:
    # (dim, m, cond, samples, seed, capped).  The scene is drawn from
    # default_rng(seed).  The capped cases leave samples undecided and
    # their shells exceed one pool: at the default pool size, 4 of 5 and
    # 19 of 20 undecided rows of the first and third case entered the
    # pool after its first step; with a 97-row pool nearly all rows do.
    CASES = [
        (2, 4, 3e3, 50_001, 1, True),
        (3, 6, 3e3, 50_001, 2, True),
        (2, 6, 300.0, 200_000, 9, True),
        (4, 3, 300.0, 32_768, 3, False),
        (5, 2, 30.0, 1_000, 4, False),
        (5, 6, 3e3, 32_768, 5, False),
        (2, 1, 1.0, 200_000, 6, False),
        (3, 3, 1.0, 1_000, 7, False),
        (4, 5, 30.0, 50_001, 8, False),
        (3, 2, 3e3, 200_000, 10, False),
    ]

    @pytest.mark.parametrize("pool", [None, 97], ids=["default-pool", "pool-97"])
    @pytest.mark.parametrize(
        "case", CASES, ids=lambda c: f"N{c[0]}-m{c[1]}-k{c[2]:g}-n{c[3]}"
    )
    def test_matches_per_batch_reference(self, case, pool, monkeypatch):
        dim, m, cond, samples, seed, capped = case
        if pool is not None:
            monkeypatch.setattr(oracle, "_POOL", pool)
        rng = np.random.default_rng(seed)
        sc = EllipsoidSum.from_matrices(
            [spd_with_condition(rng, dim, cond) for _ in range(m)]
        )
        expected = reference_monte_carlo_volume(sc, samples, seed)
        assert monte_carlo_volume(sc, samples, seed) == expected
        if capped:
            assert expected.ambiguous > 0


def row_major_gauge_test(stack, shell_chunks, outer_q):
    """The row-major pool that the component-major _gauge_test replaced:
    x is (P, N), r is (m, P), H is solved by a batched np.linalg.solve and
    the pool is compacted with boolean masks."""
    m, dim, _ = stack.shape
    sq = (stack @ stack).reshape(m, dim * dim)
    queue = iter(shell_chunks)
    pending = np.empty((0, dim))
    x = np.empty((0, dim))
    r = np.empty((m, 0))
    steps = np.empty(0, dtype=np.int64)
    inside = undecided = 0
    while True:
        free = oracle._POOL - x.shape[0]
        while pending.shape[0] < free and (chunk := next(queue, None)) is not None:
            pending = np.concatenate([pending, chunk])
        if free and pending.shape[0]:
            new, pending = pending[:free], pending[free:]
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
        capped = live & (steps == oracle._CAP)
        live &= ~capped
        inside += int(np.count_nonzero(is_in))
        undecided += int(np.count_nonzero(capped))
        x = x[live]
        r = r_new[:, live] / x_dot[live]
        steps = steps[live]


class TestLdlSolve:
    # Both solvers are backward stable on SPD systems, so each solution's
    # relative error is at most c(N) eps cond(H), and so is their distance;
    # c(N) = 8 N^2 is a generous constant for these small orders.
    EPS = np.finfo(np.float64).eps

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e9, 1e12])
    def test_matches_lapack_solve(self, dim, cond):
        rng = np.random.default_rng(int(100 * dim + math.log10(cond)))
        h = np.stack([spd_with_condition(rng, dim, cond) for _ in range(500)])
        h = 0.5 * (h + h.transpose(0, 2, 1))  # both solvers see the same H
        x = rng.normal(size=(500, dim))
        upper = np.triu_indices(dim)
        n = oracle._ldl_solve(np.ascontiguousarray(h[:, upper[0], upper[1]].T), x.T.copy()).T
        ref = np.linalg.solve(h, x[:, :, None])[:, :, 0]
        tol = 8 * dim**2 * self.EPS
        err = np.linalg.norm(n - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert np.all(err <= tol * cond)
        # the backward error does not grow with cond(H)
        residual = np.linalg.norm(np.einsum("kij,kj->ki", h, n) - x, axis=1)
        scale = np.linalg.norm(h, axis=(1, 2)) * np.linalg.norm(n, axis=1)
        assert np.all(residual <= tol * scale)


class TestComponentMajorPool:
    # Shells of seeded scenes, split into uneven row-major chunks, at points
    # within 2% of the boundary and (every fifth row) within 1e-6 of it,
    # where the ill-conditioned scenes leave rows undecided.  The
    # component-major pool must decide every row as the row-major one does.
    SCENES = [(2 + i % 4, 1 + i % 6, (1.0, 30.0, 300.0, 3e3)[i % 4], i) for i in range(44)]

    @staticmethod
    def shell(case):
        dim, m, cond, seed = case
        rng = np.random.default_rng(1000 + seed)
        sc = EllipsoidSum.from_matrices(
            [spd_with_condition(rng, dim, cond) for _ in range(m)]
        )
        outer = bounds.minvol_outer(sc).entries
        rows = 5000 if seed % 3 == 0 else 1200
        scale = rng.uniform(0.98, 1.02, size=rows)
        scale[::5] = 1.0 + rng.uniform(-1e-6, 1e-6, size=len(scale[::5]))
        x = scale[:, None] * boundary_points(sc, rng.normal(size=(rows, dim)))
        chunks = np.split(x, [rows // 7, rows // 3, rows // 3 + 1])
        return sc.stack, chunks, np.linalg.inv(outer @ outer)

    @pytest.mark.parametrize("pool", [None, 97], ids=["default-pool", "pool-97"])
    def test_matches_row_major_pool(self, pool, monkeypatch):
        if pool is not None:
            monkeypatch.setattr(oracle, "_POOL", pool)
        undecided = 0
        for case in self.SCENES:
            stack, chunks, outer_q = self.shell(case)
            expected = row_major_gauge_test(stack, chunks, outer_q)
            assert _gauge_test(stack, chunks, outer_q) == expected, case
            undecided += expected[1]
        assert undecided > 0


class TestSeedAndSampleContract:
    SCENE = EllipsoidSum.from_matrices([np.diag([2.0, 1.0])])

    @pytest.mark.parametrize(
        "samples, seed, error, match",
        [
            (5000, 1.7, TypeError, None),
            (5000.0, 1, TypeError, None),
            (5000, "1", TypeError, None),
            (5000, -1, ValueError, "seed"),
            (5000, np.int64(-3), ValueError, "seed"),
            (999, 1, ValueError, "samples"),
        ],
    )
    def test_rejected(self, samples, seed, error, match):
        with pytest.raises(error, match=match):
            monte_carlo_volume(self.SCENE, samples, seed)

    @pytest.mark.parametrize("samples, seed", [(np.int64(5000), 1), (5000, np.int32(1))])
    def test_numpy_integers_accepted(self, samples, seed):
        est = monte_carlo_volume(self.SCENE, samples, seed)
        assert est == monte_carlo_volume(self.SCENE, 5000, 1)
        assert type(est.samples) is int and type(est.seed) is int


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
