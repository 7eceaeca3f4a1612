"""Panel factorization tests: contracts, sign convention, the width-1 path."""

import dataclasses

import numpy as np
import pytest

import blockgs as bg
from blockgs import kernels
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
