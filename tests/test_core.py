"""Dense-core tests: products, spectral norm, defect, residual, domain types."""

import dataclasses
import warnings

import numpy as np
import pytest

import blockgs as bg
from blockgs import core, kernels
from conftest import random_orthonormal


class TestMatmul:
    def test_identity(self):
        eye = np.eye(3)
        assert np.array_equal(bg.matmul(eye, eye), eye)

    def test_scalar(self):
        assert bg.matmul([[2.0]], [[3.0]])[0, 0] == 6.0

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"4x3.*2x2"):
            bg.matmul(np.ones((4, 3)), np.ones((2, 2)))

    def test_deterministic(self, rng):
        a = rng.standard_normal((12, 7))
        b = rng.standard_normal((7, 3))
        assert bg.matmul(a, b).tobytes() == bg.matmul(a, b).tobytes()

    def test_output_column_major(self, rng):
        out = bg.matmul(rng.standard_normal((5, 4)), rng.standard_normal((4, 2)))
        assert out.flags.f_contiguous


class TestSpectralNorm:
    def test_diagonal(self):
        assert bg.spectral_norm(np.diag([3.0, 1.0])) == 3.0

    def test_zero(self):
        assert bg.spectral_norm(np.zeros((2, 2))) == 0.0

    def test_matches_eigensolver_oracle(self, rng):
        a = rng.standard_normal((5, 3))
        expected = np.sqrt(np.linalg.eigvalsh(a.T @ a).max())
        assert bg.spectral_norm(a) == pytest.approx(expected, rel=1e-12)

    def test_transpose_invariance(self, rng):
        a = rng.standard_normal((9, 4))
        assert bg.spectral_norm(a) == pytest.approx(bg.spectral_norm(a.T), rel=1e-12)

    def test_submultiplicative(self, rng):
        for _ in range(10):
            a = rng.standard_normal((6, 5))
            b = rng.standard_normal((5, 7))
            lhs = bg.spectral_norm(bg.matmul(a, b))
            rhs = bg.spectral_norm(a) * bg.spectral_norm(b)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_large_matrix_takes_power_iteration_path(self, rng):
        # min(m, n) > 512, where power iteration once replaced the SVD.
        m, n = 540, 520
        u = rng.standard_normal((m, 1))
        v = rng.standard_normal((n, 1))
        a = np.asfortranarray(3.0 * (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v)).T
                              + 0.01 * rng.standard_normal((m, n)))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert bg.spectral_norm(a) == expected

    def test_svd_failure_is_spectral_norm_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence after 30 sweeps")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(
            bg.SpectralNormError, match="^SVD did not converge: no convergence"
        ) as exc:
            bg.spectral_norm(np.eye(3))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_non_finite_input_fails_fast(self):
        for bad in (np.nan, np.inf):
            a = bg.gen_svd_spectrum(50, 10, kappa=10.0, seed=0)
            a[3, 4] = bad
            with pytest.raises(bg.SpectralNormError, match="input is not finite"):
                bg.spectral_norm(a)
            with pytest.raises(bg.SpectralNormError, match="input is not finite"):
                bg.bcgs2(a, bg.BlockPartition.uniform(10, 4))


class TestOrthogonalityDefect:
    def test_identity(self):
        assert bg.orthogonality_defect(np.eye(4)) == 0.0

    def test_duplicated_column(self):
        q = np.zeros((3, 2), order="F")
        q[0, 0] = 1.0
        q[0, 1] = 1.0
        assert bg.orthogonality_defect(q) == pytest.approx(1.0, abs=1e-15)

    def test_householder_panel_is_tiny(self, rng):
        res = bg.local_qr(rng.standard_normal((50, 10)))
        assert bg.orthogonality_defect(res.q) <= 1e-14

    def test_permutation_invariance(self, rng):
        q = random_orthonormal(50, 10, seed=5) + 1e-3 * rng.standard_normal((50, 10))
        perm = np.random.default_rng(1).permutation(10)
        d1 = bg.orthogonality_defect(q)
        d2 = bg.orthogonality_defect(np.asfortranarray(q[:, perm]))
        assert abs(d1 - d2) <= 1e-15

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            bg.orthogonality_defect(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "n", [1, core._GRAM_TILE - 1, 2 * core._GRAM_TILE, 2 * core._GRAM_TILE + 3]
    )
    def test_tiled_gram_is_the_full_product(self, rng, n):
        # Gaussian columns, and columns whose products cancel (a huge first
        # row over ones) or are all -0.0, where the summation order shows.
        gauss = rng.standard_normal((40, n))
        cancel = np.ones((40, n))
        cancel[0] = 2.0**27 * (1.0 + np.arange(n) % 3)
        zeros = np.zeros((40, n))
        zeros[:, ::2] = -0.0
        zeros[::3, 1::2] = 1.0
        for q in (gauss, cancel, zeros):
            q = np.asfortranarray(q)
            gram = core._gram(q)
            assert gram.flags.f_contiguous
            assert gram.tobytes() == kernels.matmul(q.T, q).tobytes()


class TestRelativeResidual:
    def test_identity_factorization(self):
        eye = np.eye(3)
        f = bg.QRFactorization(eye, eye)
        assert bg.relative_residual(eye, f) == 0.0

    def test_exact_reconstruction(self, rng):
        q = random_orthonormal(20, 6, seed=9)
        r = np.asfortranarray(np.triu(rng.standard_normal((6, 6))))
        a = bg.matmul(q, r)
        resid = bg.relative_residual(a, bg.QRFactorization(q, r))
        assert resid <= 2.0 * bg.MACHINE_UNIT * a.shape[1]

    def test_zero_matrix_flagged(self):
        f = bg.QRFactorization(np.eye(2), np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert bg.relative_residual(np.zeros((2, 2)), f) == 0.0
        assert any("zero" in str(w.message) for w in caught)


class TestUpperTriangularInverse:
    def test_matches_solve(self, rng):
        r = np.triu(rng.standard_normal((6, 6))) + 3.0 * np.eye(6)
        inv = bg.upper_triangular_inverse(r)
        assert np.linalg.norm(inv - np.linalg.inv(r)) < 1e-12
        assert np.all(np.tril(inv, -1) == 0.0)

    def test_singular_gives_infinite_entries(self):
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        inv = bg.upper_triangular_inverse(r)
        assert not np.isfinite(inv).all()


class TestBlockPartition:
    def test_uniform_last_block_smaller(self):
        part = bg.BlockPartition.uniform(10, 4)
        assert part.widths == (4, 4, 2)
        assert part.max_width == 4
        assert list(part.column_spans()) == [(0, 4), (4, 8), (8, 10)]

    def test_ones_and_single(self):
        assert bg.BlockPartition.ones(3).widths == (1, 1, 1)
        assert bg.BlockPartition.single(5).widths == (5,)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            bg.BlockPartition(())
        with pytest.raises(ValueError):
            bg.BlockPartition((3, 0))

    def test_validate_total(self):
        with pytest.raises(ValueError, match="sum to 7"):
            bg.BlockPartition((3, 4)).validate_total(8)


class TestQRFactorization:
    def test_rejects_lower_triangle_garbage(self):
        r = np.eye(3)
        r[2, 0] = 1e-30
        with pytest.raises(ValueError, match="below the diagonal"):
            bg.QRFactorization(np.eye(3), r)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bg.QRFactorization(np.eye(3), np.eye(2))

    def test_fields_are_the_whole_interface(self):
        # The shape is (q.shape[0], r.shape[1]); there is no second accessor.
        assert [f.name for f in dataclasses.fields(bg.QRFactorization)] == ["q", "r"]
        assert not hasattr(bg.QRFactorization(np.eye(3), np.eye(3)), "shape")


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        bg.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        bg.as_matrix(np.ones((0, 2)))
