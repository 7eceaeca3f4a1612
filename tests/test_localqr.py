"""Panel factorization tests: contracts, sign convention, the width-1 path."""

import dataclasses
import warnings

import numpy as np
import pytest

import blockgs as bg
from blockgs import kernels, localqr
from blockgs.errors import RankDeficientError


def test_identity_panel_gives_identity_factors():
    res = bg.local_qr(np.eye(3))
    assert np.array_equal(res.q, np.eye(3))
    assert np.array_equal(res.r, np.eye(3))


def test_single_column_three_four_five():
    res = bg.local_qr([[3.0], [4.0]])
    assert res.r.shape == (1, 1) and res.r[0, 0] == 5.0
    assert np.array_equal(res.q, [[0.6], [0.8]])


def test_width_one_is_plain_normalization(rng):
    b = np.asfortranarray(rng.standard_normal((23, 1)))
    res = bg.local_qr(b)
    norm = kernels.vec_norm(b[:, 0])
    assert res.r[0, 0] == norm
    assert res.q.tobytes() == (b / norm).tobytes()


@pytest.mark.parametrize("width", [1, 4])
def test_result_is_the_step_against_an_empty_basis(rng, width):
    res = bg.local_qr(rng.standard_normal((12, width)))
    assert isinstance(res, bg.BlockStepResult)
    assert res.s.shape == (0, width)
    assert res.r2 is None
    assert bg.steps.BlockStepResult is bg.BlockStepResult


def test_step_result_fields_are_factors_only():
    assert [f.name for f in dataclasses.fields(bg.BlockStepResult)] == ["q", "r", "s", "r2"]


def test_deterministic(rng):
    b = rng.standard_normal((30, 6))
    r1 = bg.local_qr(b)
    r2 = bg.local_qr(b)
    assert r1.q.tobytes() == r2.q.tobytes()
    assert r1.r.tobytes() == r2.r.tobytes()


def test_contract_on_random_panel(rng):
    b = rng.standard_normal((40, 5))
    res = bg.local_qr(b)
    bound = 10.0 * bg.MACHINE_UNIT * 40 * 5**1.5
    assert bg.spectral_norm(b - bg.matmul(res.q, res.r)) <= bound * bg.spectral_norm(b)
    assert bg.orthogonality_defect(res.q) <= bound


def test_contract_corpus():
    # 100 panels spanning the documented size range.
    rng = np.random.default_rng(7)
    for trial in range(100):
        p = int(rng.integers(1, 33))
        m = int(rng.integers(max(p, 10), 501))
        b = rng.standard_normal((m, p))
        res = bg.local_qr(b)
        bound = 10.0 * bg.MACHINE_UNIT * bg.l1(m, p)
        norm_b = bg.spectral_norm(b)
        assert bg.spectral_norm(b - bg.matmul(res.q, res.r)) <= bound * norm_b
        assert bg.orthogonality_defect(res.q) <= bound
        assert np.all(np.diagonal(res.r) >= 0.0)
        assert np.all(np.tril(res.r, -1) == 0.0)


def test_diagonal_nonnegative_even_for_negative_input():
    res = bg.local_qr([[-2.0, 1.0], [0.0, -3.0]])
    assert np.all(np.diagonal(res.r) >= 0.0)
    recon = bg.matmul(res.q, res.r)
    assert np.allclose(recon, [[-2.0, 1.0], [0.0, -3.0]], atol=1e-15)


def test_zero_column_raises_with_index():
    with pytest.raises(RankDeficientError) as info:
        bg.local_qr(np.zeros((4, 1)))
    assert info.value.index == 0
    assert info.value.magnitude == 0.0


def test_dependent_columns_raise_with_diagnostics(rng):
    b = np.empty((10, 3), order="F")
    b[:, 0] = rng.standard_normal(10)
    b[:, 1] = rng.standard_normal(10)
    b[:, 2] = b[:, 0] + b[:, 1]
    with pytest.raises(RankDeficientError) as info:
        bg.local_qr(b)
    assert info.value.index == 2
    assert "rank deficient" in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("width", [1, 4])
def test_non_finite_panel_is_not_called_rank_deficient(rng, bad, width):
    b = np.asfortranarray(rng.standard_normal((12, width)))
    b[5, width - 1] = bad
    with pytest.raises(bg.SpectralNormError, match="input is not finite"):
        bg.local_qr(b)


@pytest.mark.parametrize("width", [1, 4])
def test_non_finite_entry_fails_before_arithmetic(rng, width):
    # Under errstate(all="raise"), any arithmetic on the inf would raise
    # FloatingPointError before the finiteness check.
    b = np.asfortranarray(rng.standard_normal((12, width)))
    b[9, width - 1] = np.inf
    with np.errstate(all="raise"):
        with pytest.raises(bg.SpectralNormError, match=rf"entry \[9, {width - 1}\] is inf"):
            bg.local_qr(b)


@pytest.mark.parametrize("width", [1, 4])
def test_finite_panel_with_overflowing_norm_fails_the_rank_test(rng, width):
    b = np.asfortranarray(rng.standard_normal((12, width)) * 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RankDeficientError):
            bg.local_qr(b)


def test_wide_panel_rejected():
    with pytest.raises(ValueError):
        bg.local_qr(np.ones((2, 3)))


class TestL1Bound:
    def test_width_one_closed_form(self):
        assert bg.l1(10, 1) == 14.0

    def test_general_closed_form(self):
        assert bg.l1(8, 4) == 64.0

    def test_minimum_size(self):
        assert bg.l1(1, 1) == 5.0


class TestRankTestRules:
    """The rank test passes a wide panel by ``|b|_F`` when it can, and
    otherwise by an SVD; either way its verdict is the SVD rule's."""

    @staticmethod
    def _svd_rule(b):
        """(passes, worst, smallest diagonal, threshold) by ``m eps |b|_2``."""
        b = bg.as_matrix(b)
        with np.errstate(over="ignore", invalid="ignore"):
            _, r = kernels.householder_qr(b)
        diag = np.abs(np.diagonal(r))
        worst = int(np.argmin(diag))
        threshold = b.shape[0] * bg.MACHINE_UNIT * bg.spectral_norm(b)
        return bool(diag[worst] > threshold), worst, diag[worst], threshold

    def _assert_same_verdict(self, b):
        passes, worst, smallest, threshold = self._svd_rule(b)
        with np.errstate(over="ignore", invalid="ignore"):
            if passes:
                bg.local_qr(b)
                return True
            with pytest.raises(RankDeficientError) as info:
                bg.local_qr(b)
        assert str(info.value) == (
            f"panel is numerically rank deficient: diagonal {worst} of r is "
            f"{smallest:g}, at or below the threshold {threshold:g}"
        )
        assert info.value.index == worst
        # An overflowed panel's diagonal is nan.
        assert np.array_equal([info.value.magnitude], [smallest], equal_nan=True)
        return False

    @staticmethod
    def _near_threshold(c, m=60, p=5, seed=3):
        """A panel whose last column is a sum of two others plus a fresh
        direction of norm ``c m eps |b|_2``, so its last diagonal sits near
        the threshold."""
        rng = np.random.default_rng(seed)
        b = np.asfortranarray(rng.standard_normal((m, p)))
        b[:, -1] = b[:, 0] + b[:, 1]
        basis, _ = np.linalg.qr(rng.standard_normal((m, p)))
        fresh = basis[:, -1] - b[:, :-1] @ np.linalg.lstsq(b[:, :-1], basis[:, -1], rcond=None)[0]
        fresh /= np.linalg.norm(fresh)
        b[:, -1] += c * m * bg.MACHINE_UNIT * bg.spectral_norm(b) * fresh
        return b

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []

        def counting(b):
            calls.append(b.shape)
            return bg.spectral_norm(b)

        monkeypatch.setattr(localqr, "spectral_norm", counting)
        return calls

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_near_threshold_verdict_is_the_svd_rule(self, c):
        passes = self._assert_same_verdict(self._near_threshold(c))
        if c != 1.0:
            assert passes == (c > 1.0)

    @pytest.mark.parametrize("scale", [2.0**500, 2.0**-500, 2.0**-540, 1e200])
    @pytest.mark.parametrize("c", [0.5, 2.0, None])
    def test_scaled_verdict_is_the_svd_rule(self, rng, scale, c):
        b = rng.standard_normal((40, 6)) if c is None else self._near_threshold(c, m=40, p=6)
        self._assert_same_verdict(np.asfortranarray(b * scale))

    def test_random_panels_verdict_is_the_svd_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = int(rng.integers(2, 17))
            m = int(rng.integers(p, 200))
            b = rng.standard_normal((m, p)) * 10.0 ** rng.uniform(-8, 8, size=p)
            self._assert_same_verdict(np.asfortranarray(b))

    def test_well_conditioned_panel_takes_no_svd(self, rng, svd_calls):
        res = bg.local_qr(rng.standard_normal((500, 16)))
        assert svd_calls == []
        assert np.all(np.diagonal(res.r) > 0.0)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_near_threshold_panel_takes_the_svd(self, svd_calls, c):
        self._assert_same_verdict(self._near_threshold(c))
        # One SVD in local_qr; the test's own rule calls bg.spectral_norm.
        assert svd_calls == [(60, 5)]

    @pytest.mark.parametrize("scale", [1e200, 2.0**-540])
    def test_frobenius_bound_defers_silently_outside_its_range(self, rng, scale):
        b = np.asfortranarray(rng.standard_normal((40, 6)) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not localqr._clears_frobenius_bound(b, 1.0)
