"""Step-kernel tests: the scalar two-pass step and both block steps."""

import numpy as np
import pytest

import blockgs as bg
from blockgs.errors import GramSchmidtBreakdownError, RankDeficientError
from conftest import random_orthonormal


def _e(i, m):
    v = np.zeros((m, 1), order="F")
    v[i, 0] = 1.0
    return v


class TestCgs2Step:
    def test_already_orthogonal_column(self):
        res = bg.cgs2_step(_e(0, 3), _e(1, 3))
        assert np.array_equal(res.q, _e(1, 3))
        assert np.array_equal(res.r, [[1.0]])
        assert np.array_equal(res.s, [[0.0]])

    def test_exact_projection(self):
        b = np.asfortranarray([[1.0], [1.0], [0.0]])
        res = bg.cgs2_step(_e(0, 3), b)
        assert np.array_equal(res.q, _e(1, 3))
        assert np.array_equal(res.r, [[1.0]])
        assert np.array_equal(res.s, [[1.0]])

    def test_contract_against_orthonormal_panel(self, rng):
        u = random_orthonormal(20, 5, seed=31)
        b = np.asfortranarray(rng.standard_normal((20, 1)))
        res = bg.cgs2_step(u, b)
        assert bg.spectral_norm(bg.matmul(u.T, res.q)) <= 1e-14
        recon = bg.matmul(u, res.s) + bg.matmul(res.q, res.r)
        assert bg.spectral_norm(b - recon) <= 1e-14 * bg.spectral_norm(b)
        assert abs(np.linalg.norm(res.q) - 1.0) <= 4.0 * bg.MACHINE_UNIT

    def test_zero_column_breaks_first_pass(self):
        with pytest.raises(GramSchmidtBreakdownError, match="first normalization"):
            bg.cgs2_step(_e(0, 3), np.zeros((3, 1)))

    def test_result_carries_both_pass_norms(self, rng):
        u = random_orthonormal(12, 3, seed=4)
        b = np.asfortranarray(rng.standard_normal((12, 1)))
        res = bg.cgs2_step(u, b)
        r1 = bg.kernels.vec_norm(bg.steps._project(u, b)[1][:, 0])
        r2 = res.r2[0, 0]
        assert res.r.shape == res.r2.shape == (1, 1)
        assert res.r[0, 0] == r2 * r1
        assert r1 > 0.0 and r2 > 0.0

    def test_multi_column_rejected(self):
        with pytest.raises(ValueError):
            bg.cgs2_step(_e(0, 3), np.ones((3, 2)))


class TestBlockCgsStep:
    def test_orthogonal_panel_passthrough(self):
        u = _e(0, 4)
        b = np.hstack([_e(1, 4), _e(2, 4)])
        res = bg.block_cgs_step(u, b)
        assert np.array_equal(res.s, np.zeros((1, 2)))
        assert np.array_equal(res.q, b)
        assert np.array_equal(res.r, np.eye(2))
        assert res.r2 is None

    def test_duplicated_columns_raise(self, rng):
        # A panel with two bitwise-equal columns projects to two bitwise-equal
        # remainders, so the second triangular diagonal is exactly zero.
        u = random_orthonormal(12, 4, seed=8)
        col = rng.standard_normal((12, 1))
        b = np.asfortranarray(np.hstack([col, col]))
        with pytest.raises(RankDeficientError) as info:
            bg.block_cgs_step(u, b)
        assert info.value.index == 1

    def test_panel_inside_basis_range_leaves_tiny_factor(self, rng):
        # A panel that is an exact combination of the basis projects to
        # roundoff noise; the rank test is relative to the projected panel,
        # so the step completes and the stability checks flag it instead.
        u = random_orthonormal(12, 4, seed=8)
        coeff = rng.standard_normal((4, 2))
        b = bg.matmul(u, coeff)
        res = bg.block_cgs_step(u, b)
        assert bg.spectral_norm(res.r) <= 100 * bg.MACHINE_UNIT * bg.spectral_norm(b)

    def test_triangular_factor_norm_bounded(self, rng):
        u = random_orthonormal(50, 10, seed=13)
        b = np.asfortranarray(rng.standard_normal((50, 5)))
        res = bg.block_cgs_step(u, b)
        assert bg.spectral_norm(res.r) <= bg.spectral_norm(b) * (1.0 + 1e-12)

    def test_shape_constraint(self):
        with pytest.raises(ValueError):
            bg.block_cgs_step(np.ones((4, 2)), np.ones((4, 3)))


class TestBlockCgs2Step:
    def test_trivial_single_column(self):
        res = bg.block_cgs2_step(_e(0, 3), _e(1, 3))
        assert np.array_equal(res.q, _e(1, 3))
        assert np.array_equal(res.r, [[1.0]])
        assert np.array_equal(res.s, [[0.0]])

    def test_triangular_product_has_exact_zeros(self, rng):
        u = random_orthonormal(30, 6, seed=2)
        b = np.asfortranarray(rng.standard_normal((30, 4)))
        res = bg.block_cgs2_step(u, b)
        assert np.all(np.tril(res.r, -1) == 0.0)
        assert np.all(np.tril(res.r2, -1) == 0.0)

    def test_reorthogonalizes_ill_conditioned_panel(self):
        u = random_orthonormal(100, 20, seed=3)
        b = bg.gen_svd_spectrum(100, 10, kappa=1e8, seed=17)
        res = bg.block_cgs2_step(u, b)
        assert bg.spectral_norm(bg.matmul(u.T, res.q)) <= 1e-13
        assert bg.orthogonality_defect(res.q) <= 1e-13

    def test_audit_trail_present(self):
        # The step returns r2; the driver's record holds its inverse norm.
        a = bg.gen_svd_spectrum(25, 8, kappa=1e4, seed=21)
        lo = 5
        tr = bg.bcgs2(a, bg.BlockPartition((lo, 3)))
        step = bg.block_cgs2_step(tr.q[:, :lo], a[:, lo:])
        assert step.q.tobytes() == tr.q[:, lo:].tobytes()
        expected = bg.spectral_norm(bg.upper_triangular_inverse(step.r2))
        assert float.hex(tr.per_block[1].r2_inv_norm) == float.hex(expected)

    def test_linear_identity_with_growth_bound(self, rng):
        m, t, p = 60, 12, 6
        u = random_orthonormal(m, t, seed=5)
        for trial in range(5):
            b = np.asfortranarray(rng.standard_normal((m, p)))
            res = bg.block_cgs2_step(u, b)
            recon = bg.matmul(u, res.s) + bg.matmul(res.q, res.r)
            bound = 10.0 * bg.MACHINE_UNIT * bg.f_resid(m, t, p) * bg.spectral_norm(b)
            assert bg.spectral_norm(b - recon) <= bound

    def test_combined_triangular_norm_bounded(self, rng):
        u = random_orthonormal(40, 8, seed=11)
        b = np.asfortranarray(rng.standard_normal((40, 4)))
        res = bg.block_cgs2_step(u, b)
        assert bg.spectral_norm(res.r) <= bg.spectral_norm(b) * (1.0 + 1e-10)

    def test_second_pass_repairs_first(self):
        # Panels nearly inside the basis range: one pass leaves visible
        # overlap, the second pass removes it.
        m, t, p = 80, 16, 4
        u = random_orthonormal(m, t, seed=41)
        rng = np.random.default_rng(42)
        for trial in range(5):
            coeff = rng.standard_normal((t, p))
            b = np.asfortranarray(bg.matmul(u, coeff) + 5e-9 * rng.standard_normal((m, p)))
            one_pass = bg.block_cgs_step(u, b)
            two_pass = bg.block_cgs2_step(u, b)
            assert bg.spectral_norm(bg.matmul(u.T, one_pass.q)) > 1e-8
            assert bg.spectral_norm(bg.matmul(u.T, two_pass.q)) <= 1e-13

    def test_width_one_matches_scalar_step_bitwise(self, rng):
        # The scalar step is the width-1 block step, field for field.
        cases = [(random_orthonormal(35, 9, seed=6), rng.standard_normal((35, 1)))]
        for m, t, seed in [(3, 1, 1), (50, 1, 2), (200, 40, 3), (200, 79, 4)]:
            u = random_orthonormal(m, t, seed=seed)
            cases.append((u, rng.standard_normal((m, 1))))
            # Nearly inside the range of u: the second pass does real work.
            near = bg.matmul(u, rng.standard_normal((t, 1)))
            cases.append((u, near + 1e-9 * rng.standard_normal((m, 1))))
        cases.append((_e(0, 3), np.asfortranarray([[1.0], [1.0], [0.0]])))
        for u, b in cases:
            b = np.asfortranarray(b)
            scalar = bg.cgs2_step(u, b)
            block = bg.block_cgs2_step(u, b)
            for field in ("q", "r", "s", "r2"):
                got, want = getattr(scalar, field), getattr(block, field)
                assert got.shape == want.shape, field
                assert got.tobytes() == want.tobytes(), field
