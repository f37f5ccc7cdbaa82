import ctypes
import glob
import os

import numpy as np
import pytest

from conftest import random_rotation, random_spd
from minksum.spd import SpdError, SpdMatrix, geometric_mean, spd_sqrt, sym_eigen
from minksum.spd import _geometric_mean_raw, _inv_sqrt_raw, _ldl, _sqrt_raw, _sym_part


class TestSymEigen:
    def test_diagonal(self):
        out = sym_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(out.eigenvalues, [1.0, 3.0])
        assert np.allclose(np.abs(out.eigenvectors), [[0, 1], [1, 0]])

    def test_identity(self):
        out = sym_eigen(np.eye(4))
        assert np.allclose(out.eigenvalues, np.ones(4))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            m = m + m.T
            out = sym_eigen(m)
            v, lam = out.eigenvectors, out.eigenvalues
            assert np.linalg.norm(v @ np.diag(lam) @ v.T - m) <= 1e-10 * (
                1.0 + np.linalg.norm(m)
            )
            assert np.linalg.norm(v.T @ v - np.eye(5)) < 1e-12
            assert np.all(np.diff(lam) >= 0.0)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 4)
        a = sym_eigen(m).eigenvectors
        b = sym_eigen(m.copy()).eigenvectors
        assert np.array_equal(a, b)
        # largest-magnitude entry of each eigenvector is positive
        for col in a.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_nonsymmetric(self):
        # the tolerance is relative to |M|, below unit scale too
        for m in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1e-14, 1e-15], [0.0, 1e-14]])):
            with pytest.raises(SpdError):
                sym_eigen(m)
            with pytest.raises(SpdError):
                SpdMatrix(m)


class TestSpdMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(SpdError):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_rejects_near_singular(self):
        with pytest.raises(SpdError):
            SpdMatrix(np.diag([1.0, 1e-14]))

    def test_symmetrizes_roundoff(self):
        m = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        s = SpdMatrix(m)
        assert np.array_equal(s.entries, s.entries.T)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(SpdError):
                SpdMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_det(self):
        s = SpdMatrix(np.diag([2.0, 3.0]))
        assert s.det() == pytest.approx(6.0, rel=1e-12)


class TestSqrt:
    def test_diagonal(self):
        r = spd_sqrt(SpdMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(r.entries, np.diag([2.0, 3.0]))

    def test_identity(self):
        r = spd_sqrt(SpdMatrix(np.eye(3)))
        assert np.allclose(r.entries, np.eye(3))

    def test_squares_back(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_spd(rng, 3)
            r = spd_sqrt(SpdMatrix(m)).entries
            assert np.linalg.norm(r @ r - m) <= 1e-10 * np.linalg.norm(m)

    def test_scaling(self):
        rng = np.random.default_rng(8)
        m = random_spd(rng, 3)
        r = spd_sqrt(SpdMatrix(m)).entries
        rc = spd_sqrt(SpdMatrix(4.0 * m)).entries
        assert np.allclose(rc, 2.0 * r, rtol=1e-12, atol=1e-12)


class TestGeometricMean:
    def test_equal_arguments(self):
        rng = np.random.default_rng(9)
        p = SpdMatrix(random_spd(rng, 3))
        g = geometric_mean(p, p)
        assert np.allclose(g.entries, p.entries, rtol=1e-10)

    def test_commuting_diagonal(self):
        g = geometric_mean(SpdMatrix(np.diag([4.0, 1.0])), SpdMatrix(np.diag([1.0, 4.0])))
        assert np.allclose(g.entries, 2.0 * np.eye(2), rtol=1e-12)

    def test_riccati_identity(self):
        # the mean G is the unique SPD solution of G P^-1 G = Q
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = random_spd(rng, 3)
            q = random_spd(rng, 3)
            g = geometric_mean(SpdMatrix(p), SpdMatrix(q)).entries
            lhs = g @ np.linalg.inv(p) @ g
            assert np.linalg.norm(lhs - q) <= 1e-9 * np.linalg.norm(q)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(12)
        p = SpdMatrix(random_spd(rng, 4))
        q = SpdMatrix(random_spd(rng, 4))
        ab = geometric_mean(p, q).entries
        ba = geometric_mean(q, p).entries
        assert np.linalg.norm(ab - ba) <= 1e-10 * np.linalg.norm(ab)

    def test_commuting_reduces_to_sqrt_product(self):
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        p1 = q @ np.diag([1.0, 2.0, 3.0]) @ q.T
        p2 = q @ np.diag([4.0, 5.0, 6.0]) @ q.T
        g = geometric_mean(SpdMatrix(p1), SpdMatrix(p2)).entries
        expected = spd_sqrt(SpdMatrix(p1)).entries @ spd_sqrt(SpdMatrix(p2)).entries
        assert np.allclose(g, expected, rtol=1e-9, atol=1e-10)

    def test_ill_conditioned_result_symmetric(self):
        # P has condition 2.5e6 (the square of a term with condition 1.6e3):
        # the product P^1/2 M P^1/2 is asymmetric by ~1e-12 relative, above
        # SYM_TOL, unless it is symmetrized
        p = SpdMatrix(
            np.array(
                [[936649.1165371957, 91488.44663081774, 533496.4878247785], [91488.44663081774, 72272.11755056263, -45369.423663684436], [533496.4878247785, -45369.423663684436, 453900.1652855556]]
            )
        )
        q = SpdMatrix(
            np.array(
                [[51615.15053664534, 128622.45517293146, 52073.64965846569], [128622.45517293146, 321853.8461162765, 130473.48971752053], [52073.64965846569, 130473.48971752053, 52932.87831934218]]
            )
        )
        g = geometric_mean(p, q).entries
        assert np.array_equal(g, g.T)
        lhs = g @ np.linalg.inv(p.entries) @ g
        assert np.linalg.norm(lhs - q.entries) <= 1e-8 * np.linalg.norm(q.entries)

    def test_dimension_mismatch(self):
        with pytest.raises(SpdError):
            geometric_mean(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)))

    def test_one_eigendecomposition_is_bitwise(self):
        # reference: P^1/2 and P^-1/2 from two separate eigendecompositions
        rng = np.random.default_rng(14)

        def spd_with_condition(dim, kappa):
            rot = random_rotation(rng, dim)
            return SpdMatrix(rot @ np.diag(np.geomspace(1.0, kappa, dim)) @ rot.T)

        for k in range(50):
            dim = 2 + k % 3
            p = spd_with_condition(dim, 10.0 ** rng.uniform(0.0, 3.0) if k % 2 else 1e3)
            q = spd_with_condition(dim, 10.0 ** rng.uniform(0.0, 3.0))
            ph, phi = _sqrt_raw(p.entries), _inv_sqrt_raw(p.entries)
            inner = _sqrt_raw(phi @ q.entries @ phi)
            ref = _sym_part(ph @ inner @ ph)
            assert np.array_equal(geometric_mean(p, q).entries, ref)


class TestGeometricMeanRaw:
    @pytest.mark.parametrize("low", [0.0, -1e-3])
    def test_rejects_a_nonpositive_spectrum(self, low):
        # raw arrays skip SpdMatrix validation: P^(-1/2) does not exist here
        with pytest.raises(SpdError, match="not positive definite in floating point"):
            _geometric_mean_raw(np.diag([1.0, low]), np.eye(2))


def pool_upper(mats):
    """The upper-triangle entries of a stack of matrices as rows over the stack."""
    upper = np.triu_indices(mats.shape[1])
    return np.ascontiguousarray(mats[:, upper[0], upper[1]].T)


class TestLdl:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_factors_reconstruct_and_pivots_give_the_determinant(self, dim):
        rng = np.random.default_rng(120 + dim)
        mats = np.stack([random_spd(rng, dim) for _ in range(50)])
        low, d = _ldl(pool_upper(mats), dim)
        ell = np.zeros_like(mats)
        for i in range(dim):
            ell[:, i, i] = 1.0
            for k in range(i):
                ell[:, i, k] = low[i][k]
        rebuilt = ell @ (np.stack(d, axis=1)[:, :, None] * np.swapaxes(ell, 1, 2))
        assert np.allclose(rebuilt, mats, rtol=0.0, atol=1e-13 * np.max(np.abs(mats)))
        dets = np.prod(d, axis=0)
        assert np.allclose(dets, np.linalg.det(mats), rtol=1e-12, atol=0.0)

    def test_zero_pivot_leaves_finite_factors(self):
        # [[0, 0], [0, 1]] and [[0, 1], [1, 0]] have a zero first pivot
        mats = np.array(
            [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 2.0]]]
        )
        with np.errstate(all="raise"):
            low, d = _ldl(pool_upper(mats), 2)
        assert low[1][0].tolist() == [0.0, 0.0, 0.5]
        assert np.stack(d).T.tolist() == [[0.0, 1.0], [0.0, 0.0], [2.0, 1.5]]


class TestBlasKernel:
    def test_bundled_openblas_runs_the_pinned_kernel(self):
        # conftest sets OPENBLAS_CORETYPE before numpy loads; the goldens
        # (golden_bounds.json, the Monte Carlo goldens) hold for the Haswell
        # kernels, which OpenBLAS also runs for OPENBLAS_CORETYPE=Zen
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        libs = glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))
        if not libs:
            pytest.skip("numpy does not bundle scipy-openblas")
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        assert corename() == b"Haswell"
