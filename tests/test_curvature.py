import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import conditioned_spd, random_scene, random_spd, random_unit
from minksum.curvature import (
    _chart_normal_and_jacobian,
    area_factors,
    curvature_matrix,
    curvature_term,
    curvatures_from_reduced,
    fundamental_forms,
    principal_curvature_stack,
    principal_curvatures,
    reduced_curvature,
    reduced_stack,
    tangent_basis,
)
from minksum.geometry import COND_WARN, EllipsoidSum, boundary_points, term_norms
from minksum.spd import sym_eigen


def fd_curvature(scene, n, step=1e-5):
    """Central-difference Jacobian of the degree-0 boundary map x(n).

    Because x is homogeneous of degree 0, its Jacobian at a unit n equals
    C(n); this is the independent oracle for the closed form.
    """
    dim = scene.dim
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        plus = boundary_points(scene, (n + e)[None, :])[0]
        minus = boundary_points(scene, (n - e)[None, :])[0]
        cols.append((plus - minus) / (2 * step))
    return np.column_stack(cols)


class TestCurvatureTerm:
    def test_unit_ball(self):
        n = np.array([0.0, 0.6, 0.8])
        expected = np.eye(3) - np.outer(n, n)
        assert np.allclose(curvature_term(np.eye(3), n), expected, atol=1e-14)

    def test_diagonal_at_axis(self):
        out = curvature_term(np.diag([2.0, 3.0]), [1.0, 0.0])
        assert np.allclose(out, np.diag([0.0, 9.0 / 2.0]), atol=1e-14)

    def test_annihilates_normal(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            a = random_spd(rng, 3)
            n = random_unit(rng, 3)
            c = curvature_term(a, n)
            assert np.linalg.norm(c @ n) < 1e-12 * np.linalg.norm(c)

    def test_transformation_law(self):
        # C((S A^2 S^T)^(1/2), n) = S C(A, S^T n) S^T with unnormalized n
        from minksum.spd import _sqrt_raw

        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_spd(rng, 3)
            s = rng.normal(size=(3, 3))
            n = random_unit(rng, 3)
            left = curvature_term(_sqrt_raw(s @ a @ a @ s.T), n)
            right = s @ curvature_term(a, s.T @ n) @ s.T
            assert np.linalg.norm(left - right) <= 1e-9 * np.linalg.norm(right)


class TestCurvatureMatrix:
    def test_ball_pair(self):
        sc = EllipsoidSum.from_matrices([1.5 * np.eye(3), 2.5 * np.eye(3)])
        n = np.array([1.0, 0.0, 0.0])
        expected = 4.0 * (np.eye(3) - np.outer(n, n))
        assert np.allclose(curvature_matrix(sc, n).full, expected, atol=1e-13)

    def test_null_direction_and_rank(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            sc = random_scene(rng, dim, int(rng.integers(1, 4)))
            n = random_unit(rng, dim)
            c = curvature_matrix(sc, n).full
            assert np.linalg.norm(c @ n) < 1e-10 * np.linalg.norm(c)
            lam = sym_eigen(c).eigenvalues
            assert abs(lam[0]) < 1e-8 * lam[-1]
            assert np.all(lam[1:] > 1e-8 * lam[-1])

    def test_full_vs_reduced_spectrum(self, example_scene):
        n = np.array([1.0, 0.0])
        c = curvature_matrix(example_scene, n)
        full_lam = sym_eigen(c.full).eigenvalues
        red = reduced_curvature(c, tangent_basis(n))
        assert full_lam[-1] == pytest.approx(float(red[0, 0]), rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            dim = int(rng.integers(2, 4))
            sc = random_scene(rng, dim, 2)
            n = random_unit(rng, dim)
            c = curvature_matrix(sc, n).full
            fd = fd_curvature(sc, n)
            assert np.linalg.norm(fd - c) < 1e-4 * np.linalg.norm(c)


class TestTangentBasis:
    def test_north_pole(self):
        m = tangent_basis(np.array([0.0, 0.0, 1.0])).columns
        assert np.allclose(m, np.eye(3)[:, :2])

    def test_e1_in_2d(self):
        m = tangent_basis(np.array([1.0, 0.0])).columns
        assert np.allclose(np.abs(m.ravel()), [0.0, 1.0])
        # fixed sign convention, reproducible
        again = tangent_basis(np.array([1.0, 0.0])).columns
        assert np.array_equal(m, again)

    def test_orthonormality(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            n = random_unit(rng, dim)
            m = tangent_basis(n).columns
            assert np.linalg.norm(m.T @ m - np.eye(dim - 1)) < 1e-14
            assert np.linalg.norm(n @ m) < 1e-14
            assert np.linalg.norm(m @ m.T + np.outer(n, n) - np.eye(dim)) < 1e-12


class TestReducedCurvature:
    def test_projector_reduces_to_identity(self):
        n = np.array([0.6, 0.0, 0.8])
        c = curvature_matrix(EllipsoidSum.from_matrices([np.eye(3)]), n)
        red = reduced_curvature(c, tangent_basis(n))
        assert np.allclose(red, np.eye(2), atol=1e-14)

    def test_ball_radius(self):
        n = np.array([0.0, 1.0, 0.0])
        sc = EllipsoidSum.from_matrices([3.0 * np.eye(3)])
        red = reduced_curvature(curvature_matrix(sc, n), tangent_basis(n))
        assert np.allclose(red, 3.0 * np.eye(2), atol=1e-13)

    def test_spectrum_matches_full(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            sc = random_scene(rng, 3, 2)
            n = random_unit(rng, 3)
            c = curvature_matrix(sc, n)
            red = reduced_curvature(c, tangent_basis(n))
            lam_red = sym_eigen(red).eigenvalues
            lam_full = sym_eigen(c.full).eigenvalues[1:]
            assert np.allclose(lam_red, lam_full, rtol=1e-10, atol=1e-12)

    def test_normal_mismatch_rejected(self):
        n1 = np.array([1.0, 0.0])
        n2 = np.array([0.0, 1.0])
        c = curvature_matrix(EllipsoidSum.from_matrices([np.eye(2)]), n1)
        with pytest.raises(ValueError):
            reduced_curvature(c, tangent_basis(n2))


class TestPrincipalCurvatures:
    def test_ball_pair(self):
        sc = EllipsoidSum.from_matrices([np.eye(3), 2.0 * np.eye(3)])
        k = principal_curvatures(sc, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(k, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-13)

    def test_ellipse_major_axis(self):
        # curvature of an a-by-b ellipse at the major-axis endpoint is a/b^2
        a, b = 2.0, 1.0
        sc = EllipsoidSum.from_matrices([np.diag([a, b])])
        k = principal_curvatures(sc, np.array([1.0, 0.0]))
        assert k[0] == pytest.approx(a / b**2, rel=1e-12)

    def test_positive_and_ascending(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            sc = random_scene(rng, dim, int(rng.integers(1, 4)))
            k = principal_curvatures(sc, random_unit(rng, dim))
            assert np.all(k > 0)
            assert np.all(np.diff(k) >= 0)

    def test_against_normal_map_finite_differences(self):
        # kappa are eigenvalues of the shape operator; recover them from the
        # reduced FD Jacobian of x(n) and compare
        rng = np.random.default_rng(37)
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            sc = random_scene(rng, dim, int(rng.integers(1, 3)))
            n = random_unit(rng, dim)
            m = tangent_basis(n).columns
            fd_red = m.T @ fd_curvature(sc, n) @ m
            fd_red = 0.5 * (fd_red + fd_red.T)
            kfd = np.sort(1.0 / np.linalg.eigvalsh(fd_red))
            k = principal_curvatures(sc, n)
            assert np.allclose(k, kfd, rtol=1e-4)


def chart_by_coordinates(phi, dim):
    """n(phi) and dn/dphi entry by entry, each a left-to-right product of sines and cosines."""
    sins, coss = np.sin(phi), np.cos(phi)
    n = np.empty(dim)
    jac = np.zeros((dim, dim - 1))
    for i in range(dim):
        val = 1.0
        for k in range(i):
            val *= sins[k]
        n[i] = val * coss[i] if i < dim - 1 else val
        for j in range(min(i + 1, dim - 1)):
            val = 1.0
            for k in range(i):
                val *= coss[k] if k == j else sins[k]
            if i == j:
                val *= -sins[i]
            elif i < dim - 1:
                val *= coss[i]
            jac[i, j] = val
    return n, jac


class TestFundamentalForms:
    def test_unit_sphere_equator(self):
        sc = EllipsoidSum.from_matrices([np.eye(3)])
        g, ell = fundamental_forms(sc, [math.pi / 2, 0.0])
        assert np.allclose(g, np.eye(2), atol=1e-12)
        assert np.allclose(ell, np.eye(2), atol=1e-12)

    def test_ball_scaling(self):
        r = 2.5
        sc = EllipsoidSum.from_matrices([r * np.eye(3)])
        g, ell = fundamental_forms(sc, [1.1, 0.3])
        g1, _ = fundamental_forms(EllipsoidSum.from_matrices([np.eye(3)]), [1.1, 0.3])
        assert np.allclose(g, r**2 * g1, rtol=1e-12)
        assert np.allclose(ell, r * g1, rtol=1e-12)

    def test_shape_operator_eigenvalues(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            sc = random_scene(rng, 3, 2)
            phi = np.array([rng.uniform(0.2, math.pi - 0.2), rng.uniform(0, 2 * math.pi)])
            g, ell = fundamental_forms(sc, phi)
            kappa = np.sort(np.linalg.eigvals(np.linalg.solve(g, ell)).real)
            theta, psi = phi
            n = np.array(
                [
                    math.cos(theta),
                    math.sin(theta) * math.cos(psi),
                    math.sin(theta) * math.sin(psi),
                ]
            )
            expected = principal_curvatures(sc, n)
            assert np.allclose(kappa, expected, rtol=1e-8)

    def test_pole_rejected(self):
        sc = EllipsoidSum.from_matrices([np.eye(3)])
        with pytest.raises(ValueError):
            fundamental_forms(sc, [1e-9, 0.0])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_chart_bitwise_against_coordinate_loops(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(200):
            polar = rng.uniform(0.01, math.pi - 0.01, dim - 2)
            phi = np.append(polar, rng.uniform(-math.pi, math.pi))
            n, jac = _chart_normal_and_jacobian(phi, dim)
            ref_n, ref_jac = chart_by_coordinates(phi, dim)
            assert n.tobytes() == ref_n.tobytes()
            assert jac.tobytes() == ref_jac.tobytes()


def reference_area_factors(scene, ns):
    """det C~ at rows of unit normals from the Householder reduction M^T C M."""
    red = reduced_stack(scene, ns)
    return red[:, 0, 0] if scene.dim == 2 else np.linalg.det(red)


def kernel_area_factors(scene, ns):
    n = np.ascontiguousarray(ns.T)
    return area_factors(scene, n, term_norms(scene.stack, n))


def unit_rows(rng, dim, k):
    ns = rng.normal(size=(k, dim))
    return ns / np.linalg.norm(ns, axis=1, keepdims=True)


class TestAreaFactors:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.integers(1, 6),
        st.floats(0.0, 3.0),
    )
    def test_matches_householder_reduction(self, seed, dim, m, log_kappa):
        # every term has condition 10^u, u uniform on [0, log_kappa]
        rng = np.random.default_rng(seed)
        sc = EllipsoidSum.from_matrices(
            [conditioned_spd(rng, 10.0 ** rng.uniform(0.0, log_kappa), dim) for _ in range(m)]
        )
        ns = unit_rows(rng, dim, 64)
        ref = reference_area_factors(sc, ns)
        assert np.all(np.abs(kernel_area_factors(sc, ns) - ref) <= 1e-10 * ref)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_power_of_two_scaling_is_exact(self, dim):
        # det C~ is homogeneous of degree N - 1 in the terms, and scaling by
        # a power of two rounds nothing
        rng = np.random.default_rng(60 + dim)
        for m in (1, 2, 5):
            sc = EllipsoidSum.from_matrices(
                [conditioned_spd(rng, 10.0 ** rng.uniform(0.0, 3.0), dim) for _ in range(m)]
            )
            ns = unit_rows(rng, dim, 256)
            dets = kernel_area_factors(sc, ns)
            for k in (-7, -1, 1, 7):
                scaled = EllipsoidSum.from_matrices(2.0**k * sc.stack)
                expected = 2.0 ** (k * (dim - 1)) * dets
                assert kernel_area_factors(scaled, ns).tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore:ellipsoid .* has condition number")
    @pytest.mark.parametrize("dim, res", [(2, 256), (3, 64), (4, 16)])
    def test_finite_near_the_parser_limit(self, dim, res):
        # single terms at condition 10^9.9 make exact zero pivots in 3D
        from minksum.quadrature import build_quadrature

        ns = build_quadrature(dim, res).nodes
        for seed in range(10):
            rng = np.random.default_rng([79, dim, seed])
            for m in (1, 2):
                sc = EllipsoidSum.from_matrices(
                    [conditioned_spd(rng, 10.0**9.9, dim) for _ in range(m)]
                )
                dets = kernel_area_factors(sc, ns)
                assert np.all(np.isfinite(dets))
                if dim == 2:  # the closed form has no cancellation
                    assert np.all(dets > 0)


def longdouble_curvatures_2d(scene, ns):
    """2D curvatures at rows of normals, in np.longdouble and with no subtraction
    that cancels: C(A, n) = A (I - w w^T) A / |A n| with w = A n / |A n|, so C~ =
    sum_i (q_i^T A_i t)^2 / |A_i n|, t = (-n_2, n_1) and q_i = (-w_2, w_1)."""
    out = []
    for n in ns.astype(np.longdouble):
        t = np.array([-n[1], n[0]]) / np.sqrt(n @ n)
        red = 0
        for a in scene.stack.astype(np.longdouble):
            an = a @ n
            r = np.sqrt(an @ an)
            red += (np.array([-an[1], an[0]]) @ a @ t) ** 2 / r**3
        out.append([1 / red])
    return np.array(out, dtype=np.longdouble)


def max_rel_err(kappa, ref):
    return float(np.max(np.abs(kappa - ref) / ref))


class TestClosedFormCurvatures:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 3),
        st.integers(1, 4),
        st.floats(0.0, math.log10(COND_WARN)),
    )
    def test_positive_ascending_and_in_2d_no_less_accurate(self, seed, dim, m, log_kappa):
        # every term has condition 10^u, u uniform on [0, log_kappa]
        rng = np.random.default_rng(seed)
        sc = EllipsoidSum.from_matrices(
            [conditioned_spd(rng, 10.0 ** rng.uniform(0.0, log_kappa), dim) for _ in range(m)]
        )
        ns = unit_rows(rng, dim, 16)
        kappa = principal_curvature_stack(sc, ns)
        assert np.all(np.isfinite(kappa)) and np.all(kappa > 0)
        assert np.all(np.diff(kappa, axis=1) >= 0)
        if dim == 2:
            # 1 / det C~ in closed form against the Householder reduction.  In
            # 3D both routes inherit the rounding of C's entries A_i^2 - u u^T,
            # and either can be the more accurate on a given scene
            ref = longdouble_curvatures_2d(sc, ns)
            householder = curvatures_from_reduced(reduced_stack(sc, ns))
            assert max_rel_err(kappa, ref) <= max_rel_err(householder, ref) + 1e-15

    def test_thin_ellipse_at_the_cli_normals(self):
        # kappa = |A n|^3 / det(A)^2; the Householder reduction missed it by
        # up to 1.5e-4 on these 360 normals
        a = conditioned_spd(np.random.default_rng(0), 1e6, dim=2)
        theta = 2.0 * np.pi * np.arange(360) / 360
        ns = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        exact = np.linalg.norm(ns @ a, axis=1) ** 3 / np.prod(np.linalg.eigvalsh(a)) ** 2
        sc = EllipsoidSum.from_matrices([a])
        kappa = np.array([principal_curvatures(sc, n)[0] for n in ns])
        assert np.all(np.abs(kappa - exact) <= 1e-5 * exact)

    @pytest.mark.filterwarnings("ignore:ellipsoid .* has condition number")
    @pytest.mark.parametrize("dim, res", [(2, 256), (3, 64)])
    def test_finite_wherever_the_householder_route_is(self, dim, res):
        # past COND_WARN lambda_2 falls below rounding, and an exact zero
        # pivot can leave det C~ = 0 where eigvalsh still gives a finite value
        from minksum.quadrature import build_quadrature

        ns = build_quadrature(dim, res).nodes
        for seed in range(10):
            rng = np.random.default_rng([79, dim, seed])
            for m, log_kappa in itertools.product((1, 2, 3), (7.0, 8.0, 9.0, 9.9)):
                sc = EllipsoidSum.from_matrices(
                    [conditioned_spd(rng, 10.0**log_kappa, dim) for _ in range(m)]
                )
                with np.errstate(divide="ignore"):
                    finite = np.isfinite(curvatures_from_reduced(reduced_stack(sc, ns))).all(axis=1)
                assert np.all(np.isfinite(principal_curvature_stack(sc, ns)[finite]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ball_sums(self, dim):
        # kappa = 1 / sum_i r_i, within 9 ulps: m-term sums and unit normals
        # that are unit only to rounding reached 7 ulps over 3,600 draws
        rng = np.random.default_rng(90 + dim)
        for m in (1, 2, 5):
            radii = rng.uniform(0.1, 10.0, m)
            sc = EllipsoidSum.from_matrices([r * np.eye(dim) for r in radii])
            kappa = principal_curvature_stack(sc, unit_rows(rng, dim, 64))
            expected = 1.0 / np.sum(radii)
            assert np.all(np.abs(kappa - expected) <= 2e-15 * expected)
