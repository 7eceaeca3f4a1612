"""Growth-function tests: closed forms, identities, monotonicity, checkers."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import blockgs as bg
from conftest import degraded_cascade_matrix


class TestClosedForms:
    def test_l4_l5_at_width_one(self):
        assert bg.l4(1) == 2.0
        assert bg.l5(1) == 1.0

    def test_l3_at_t_zero(self):
        for p in (1, 2, 9):
            assert bg.l3(0, p) == math.sqrt(p)

    def test_l2_direct(self):
        assert bg.l2(100, 16, 4) == 800.0

    def test_l1_width_one_exception(self):
        # The width-1 panel constant is additive, not the general m p^{3/2}.
        assert bg.l1(10, 1) == 14.0
        assert bg.l1(8, 4) == 64.0

    def test_lf_is_sum_of_parts(self):
        for (m, t, p) in [(10, 0, 1), (10, 4, 1), (50, 16, 4), (300, 128, 32)]:
            assert bg.lf(m, t, p) == bg.l1(m, p) + bg.l2(m, t, p) + bg.l3(t, p)
        assert bg.lf(10, 0, 1) == 15.0
        assert bg.lf(10, 4, 1) == 43.0

    def test_lf_dominates_l1(self):
        for (m, t, p) in [(10, 0, 1), (40, 8, 4), (500, 480, 16)]:
            assert bg.lf(m, t, p) >= bg.l1(m, p)

    def test_alpha_value(self):
        assert bg.alpha() == math.sqrt(7.0 + 4.0 * math.sqrt(2.0))
        assert abs(bg.alpha() - 3.56) < 5e-3

    def test_gamma_k_values(self):
        assert bg.gamma_k(1) == 1.0
        assert bg.gamma_k(2) == 1.0 / math.sqrt(7.0 + 4.0 * math.sqrt(2.0) + 1.0)
        assert bg.gamma_k(2) == pytest.approx(0.27059805, rel=1e-8)

    def test_gamma_k_strictly_decreasing(self):
        values = [bg.gamma_k(k) for k in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_f1_base_case(self):
        for (m, p) in [(10, 1), (40, 8)]:
            assert bg.f1(m, 0, p) == bg.lf(m, 0, p)
            assert bg.f1(m, 0, p) >= bg.l1(m, p)

    def test_f1_monotone_in_block_count(self):
        values = [bg.f1(500, k * 8, 8) for k in range(0, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_f1_rejects_partial_blocks(self):
        with pytest.raises(ValueError, match="multiple"):
            bg.f1(50, 7, 4)

    def test_f_resid_width_one_closed_form(self):
        assert bg.f_resid(10, 4, 1) == 49.0
        assert bg.f_resid(10, 0, 1) == 33.0
        # Exact equality whenever k^{3/2} is an integer.
        for m in (30, 57, 400):
            for k in (0, 1, 4, 9, 16, 25):
                assert bg.f_resid(m, k, 1) == 2.0 * m + 2.0 * k**1.5 + 13.0

    def test_full_matrix_residual_constant(self):
        # n^{1/2} f_resid(m, n, 1) = 2 m n^{1/2} + 2 n^2 + 13 n^{1/2}.
        for (m, n) in [(30, 9), (100, 25), (400, 64)]:
            lhs = math.sqrt(n) * bg.f_resid(m, n, 1)
            rhs = 2.0 * m * math.sqrt(n) + 2.0 * n**2 + 13.0 * math.sqrt(n)
            assert lhs == pytest.approx(rhs, rel=1e-15)

    def test_f2_composition(self):
        assert bg.f2(50, 8, 4) == math.sqrt(3.0) * bg.f_resid(50, 8, 4)

    def test_f_sing_composition(self):
        got = bg.f_sing(10, 1, 1)
        expected = bg.f1(10, 1, 1) + bg.lf(10, 1, 1) + bg.gamma(10, 1, 1) * bg.l5(1)
        assert got == expected
        assert got == pytest.approx(122.35406943124693, rel=1e-14)


class TestIdentities:
    def test_gamma_ratio_matches_closed_form(self):
        # gamma computed as the lf / f1 ratio agrees with the closed form.
        m, p = 10**6, 8
        for k in list(range(1, 200)) + [10**3, 10**4]:
            t = (k - 1) * p
            ratio = bg.gamma(m, t, p)
            assert ratio == pytest.approx(bg.gamma_k(k), rel=1e-14)

    def test_gamma_times_f1_recovers_lf(self):
        m, p = 10**6, 4
        for k in list(range(1, 100)) + [10**4]:
            t = (k - 1) * p
            assert bg.gamma_k(k) * bg.f1(m, t, p) == pytest.approx(
                bg.lf(m, t, p), rel=1e-14
            )

    def test_gamma_below_one_after_first_block(self):
        for k in range(1, 50):
            assert bg.gamma(2000, k * 8, 8) < 1.0

    def test_induction_step_constant_below_f1(self):
        m = 2000
        for p in (1, 2, 4, 8, 16, 32):
            for k in range(1, 51):
                t = k * p
                assert bg.orthogonality_step_constant(m, t, p) <= bg.f1(m, t, p)

    def test_induction_step_constant_at_moderate_rows(self):
        for k in range(1, 51):
            t = k * 8
            assert bg.orthogonality_step_constant(500, t, 8) <= bg.f1(500, t, 8)

    def test_monotone_grids(self):
        ms = [64, 128, 256, 512]
        for p in (1, 4, 8):
            for t in (0, 8, 16, 32):
                for f in (bg.lf, bg.f_resid):
                    vals = [f(m, t, p) for m in ms]
                    assert all(a <= b for a, b in zip(vals, vals[1:]))
        for f in (bg.lf, bg.f_resid):
            vals = [f(512, t, 8) for t in (0, 8, 16, 64, 128)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        vals = [bg.f1(512, k * 8, 8) for k in range(8)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        for f in (bg.l4, bg.l5):
            vals = [f(p) for p in (1, 2, 4, 8, 16)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_all_nonnegative(self):
        for (m, t, p) in [(10, 0, 1), (64, 32, 8), (512, 256, 16)]:
            for f in (bg.lf, bg.f1, bg.f_resid, bg.f_sing):
                assert f(m, t, p) >= 0.0


# (l1(m, p), lf, f1, f2, f_sing, orthogonality_step_constant) at (m, t, p),
# as float.hex: fixing the panel constant at 1 must not move a single bit.
_PINNED_GROWTH = {
    (10, 4, 1): ('0x1.c000000000000p+3', '0x1.5800000000000p+5', '0x1.34f6ecd7620a4p+8',
                 '0x1.b644f2640aea1p+6', '0x1.601a8dc8bd3ddp+8', '0x1.14c4a275e363ap+8'),
    (37, 9, 3): ('0x1.8083e957c927cp+7', '0x1.b103406e63adfp+8', '0x1.51e4911663e85p+11',
                 '0x1.f53dff3383b8ep+9', '0x1.88331b87296d6p+11', '0x1.30efccd3cadf9p+11'),
    (64, 8, 8): ('0x1.6a09e667f3bcdp+10', '0x1.fabeeb5b27b6cp+10', '0x1.d42c0bad3cb31p+12',
                 '0x1.17609e667f3bep+12', '0x1.29f86f15e22a2p+13', '0x1.c31cb754920ffp+12'),
    (100, 12, 4): ('0x1.9000000000000p+9', '0x1.8a7d5c5a6a18ap+10', '0x1.33d5095b725a5p+13',
                   '0x1.c311b85c84730p+11', '0x1.653935f64ac0ap+13', '0x1.1b525e0313c58p+13'),
    (500, 64, 16): ('0x1.f400000000000p+14', '0x1.8708000000000p+15', '0x1.5f34af38d471ap+18',
                    '0x1.2baf7e07e5f3fp+17', '0x1.901e97752b3e8p+18', '0x1.4e0db6107e7d9p+18'),
    (2000, 96, 32): ('0x1.618dab0184066p+18', '0x1.d3021c3293e83p+18', '0x1.6c6bab462901fp+21',
                     '0x1.67c2011bee30bp+20', '0x1.a6d10f105e47cp+21', '0x1.5ebb7885e9ca9p+21'),
}

_GROWTH_FUNCTIONS = (bg.l1, bg.lf, bg.f1, bg.gamma, bg.f_resid, bg.f2, bg.f_sing,
                     bg.orthogonality_step_constant)


class TestFixedConstants:
    """The panel constant is 1 and the unit roundoff is MACHINE_UNIT."""

    @pytest.mark.parametrize("func", _GROWTH_FUNCTIONS, ids=lambda f: f.__name__)
    def test_growth_functions_take_no_panel_constant(self, func):
        assert "d1" not in inspect.signature(func).parameters

    def test_context_fields(self):
        assert [f.name for f in dataclasses.fields(bg.BoundContext)] == ["m", "p", "n"]

    def test_f2_takes_no_block_count(self):
        # k is always t / p + 1, the block being absorbed.
        assert list(inspect.signature(bg.f2).parameters) == ["m", "t", "p"]

    @pytest.mark.parametrize("mtp", sorted(_PINNED_GROWTH))
    def test_growth_values_are_pinned(self, mtp):
        m, t, p = mtp
        got = (bg.l1(m, p), bg.lf(m, t, p), bg.f1(m, t, p), bg.f2(m, t, p),
               bg.f_sing(m, t, p), bg.orthogonality_step_constant(m, t, p))
        assert tuple(v.hex() for v in got) == _PINNED_GROWTH[mtp]


class TestBoundContext:
    def test_owns_the_last_block(self):
        for n, blocks, t_last in [(4, 1, 0), (30, 8, 28), (32, 8, 28), (33, 9, 32)]:
            ctx = bg.BoundContext(m=100, p=4, n=n)
            assert (ctx.blocks, ctx.t_last) == (blocks, t_last)

    def test_has_no_growth_functions(self):
        # One route per bound: the module functions, called with ctx.m and ctx.p.
        ctx = bg.BoundContext(m=100, p=4, n=32)
        for name in ("l1", "lf", "f1", "f_resid", "f2", "f_sing", "gamma"):
            assert not hasattr(ctx, name), name

    def test_requires_the_column_count(self):
        with pytest.raises(TypeError):
            bg.BoundContext(m=100, p=4)

    def test_rejects_vacuous_panel_bound(self):
        with pytest.raises(ValueError, match="l1"):
            bg.BoundContext(m=2**45, p=2**10, n=2**10)

    def test_rejects_vacuous_defect_bound(self):
        with pytest.raises(ValueError, match="f1"):
            bg.BoundContext(m=2**40, p=4, n=2**22)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            bg.BoundContext(m=4, p=8, n=8)
        with pytest.raises(ValueError, match="p <= n <= m"):
            bg.BoundContext(m=100, p=8, n=4)


class TestCheckAssumptions:
    def test_well_conditioned_passes_both(self):
        a = bg.gen_svd_spectrum(60, 24, kappa=10, seed=11)
        tr = bg.bcgs2(a, bg.BlockPartition.uniform(24, 8))
        verdicts = bg.check_assumptions(tr, bg.BoundContext(m=60, p=8, n=24))
        assert len(verdicts) == 2
        assert all(v.check_a_passed and v.check_b_passed for v in verdicts)
        assert all(v.either_passed for v in verdicts)

    def test_orthonormal_input_trivially_passes(self):
        q0, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((40, 12)))
        tr = bg.bcgs2(np.asfortranarray(q0), bg.BlockPartition.uniform(12, 4))
        verdicts = bg.check_assumptions(tr, bg.BoundContext(m=40, p=4, n=12))
        for v in verdicts:
            assert v.check_a_lhs < 1e-8
            assert v.check_a_passed and v.check_b_passed

    def test_degraded_block_fails_check_a_and_defect_degrades(self):
        # The regression pairing: conditioning near 1/eps in the trailing
        # blocks makes check A fail there, and the measured defect actually
        # degrades, while the clean leading blocks still pass.
        a, part, first_bad = degraded_cascade_matrix()
        tr = bg.bcgs2(a, part)
        ctx = bg.BoundContext(m=a.shape[0], p=part.max_width, n=a.shape[1])
        verdicts = bg.check_assumptions(tr, ctx)
        bad = [v for v in verdicts if v.block_index >= first_bad]
        good = [v for v in verdicts if v.block_index < first_bad]
        assert bad and all(not v.check_a_passed for v in bad)
        assert all(v.either_passed for v in good)
        assert tr.per_block[-1].defect > 1e-10

    def test_verdict_margins_recorded(self):
        a = bg.gen_svd_spectrum(30, 8, kappa=100, seed=19)
        tr = bg.bcgs2(a, bg.BlockPartition.uniform(8, 4))
        (v,) = bg.check_assumptions(tr, bg.BoundContext(m=30, p=4, n=8))
        assert v.block_index == 2
        assert v.check_a_rhs == bg.gamma_k(2)
        assert v.check_b_rhs == math.sqrt(1.0 + bg.gamma_k(2) ** 2)
        assert v.check_a_lhs > 0.0 and v.check_b_lhs >= 1.0
        assert v.either_passed == (v.check_a_passed or v.check_b_passed)
