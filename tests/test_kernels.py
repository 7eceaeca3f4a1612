"""Kernel-level tests: fixed summation order against scalar oracles, determinism."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockgs import BlockPartition, bcgs2, kernels
from blockgs.errors import RankDeficientError
from test_golden import GOLDEN, _digests


# Plain-Python scalar loops with the kernels' operation order: the bitwise
# oracle for every numpy kernel below.


def _matmul_fill(a, b, out):
    # out[i, j] = sum_k a[i, k] * b[k, j], k ascending, seeded with the k=0
    # term so that a width-1 product is a bare multiplication.
    m, kk = a.shape
    n = b.shape[1]
    for j in range(n):
        b0j = b[0, j]
        for i in range(m):
            out[i, j] = a[i, 0] * b0j
        for k in range(1, kk):
            bkj = b[k, j]
            for i in range(m):
                out[i, j] += a[i, k] * bkj


def _dot_py(x, y):
    acc = x[0] * y[0]
    for i in range(1, x.shape[0]):
        acc += x[i] * y[i]
    return acc


def _sumsq_py(x):
    acc = x[0] * x[0]
    for i in range(1, x.shape[0]):
        acc += x[i] * x[i]
    return acc


def _weighted_row_sum_py(x, y):
    w = np.empty(y.shape[1])
    for col in range(y.shape[1]):
        acc = x[0] * y[0, col]
        for i in range(1, x.shape[0]):
            acc += x[i] * y[i, col]
        w[col] = acc
    return w


def _householder_fill(r, q, v, beta):
    # r: working copy of the panel, overwritten with the triangular factor.
    # q: identity panel on entry, explicit orthonormal factor on exit.
    # v, beta: scratch for the reflectors (unnormalized) and their 2/v^T v
    # scale factors; this formulation stays exact on integer-valued panels.
    m, p = r.shape
    for j in range(p):
        acc = r[j, j] * r[j, j]
        for i in range(j + 1, m):
            acc += r[i, j] * r[i, j]
        normx = np.sqrt(acc)
        if normx == 0.0:
            for i in range(j, m):
                v[i, j] = 0.0
            beta[j] = 0.0
            continue
        s = 1.0 if r[j, j] >= 0.0 else -1.0
        v[j, j] = r[j, j] + s * normx
        for i in range(j + 1, m):
            v[i, j] = r[i, j]
        acc2 = v[j, j] * v[j, j]
        for i in range(j + 1, m):
            acc2 += v[i, j] * v[i, j]
        beta[j] = 2.0 / acc2
        for col in range(j, p):
            w = v[j, j] * r[j, col]
            for i in range(j + 1, m):
                w += v[i, j] * r[i, col]
            tau = beta[j] * w
            for i in range(j, m):
                r[i, col] -= v[i, j] * tau
    for j in range(p - 1, -1, -1):
        for col in range(p):
            w = v[j, j] * q[j, col]
            for i in range(j + 1, m):
                w += v[i, j] * q[i, col]
            tau = beta[j] * w
            for i in range(j, m):
                q[i, col] -= v[i, j] * tau


def pure_python_matmul(a, b):
    """Triple-loop oracle with the same ascending-k, first-term-seeded order."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.empty((m, n), order="F")
    for j in range(n):
        for i in range(m):
            acc = a[i, 0] * b[0, j]
            for k in range(1, kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _run_fill(fill, a, b):
    out = np.empty((a.shape[0], b.shape[1]), order="F")
    fill(a, b, out)
    return out


def _run_householder(fill, b, order="F"):
    # order: memory order of the working copies of the panel and of q.
    m, p = b.shape
    rwork = np.array(b, dtype=np.float64, order=order, copy=True)
    q = np.array(np.eye(m, p), order=order)
    v = np.zeros((m, p), order="F")
    beta = np.zeros(p)
    fill(rwork, q, v, beta)
    return np.asfortranarray(q), np.asfortranarray(np.triu(rwork[:p, :p]))


def test_matmul_matches_triple_loop_oracle(rng):
    a = np.asfortranarray(rng.standard_normal((4, 3)))
    b = np.asfortranarray(rng.standard_normal((3, 2)))
    expected = pure_python_matmul(a, b)
    got = kernels.matmul(a, b)
    assert got.tobytes() == expected.tobytes()


def test_matmul_identity_and_scalar():
    eye = np.asfortranarray(np.eye(3))
    assert np.array_equal(kernels.matmul(eye, eye), eye)
    out = kernels.matmul(np.asfortranarray([[2.0]]), np.asfortranarray([[3.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 6.0


def test_matmul_deterministic(rng):
    a = np.asfortranarray(rng.standard_normal((17, 9)))
    b = np.asfortranarray(rng.standard_normal((9, 5)))
    assert kernels.matmul(a, b).tobytes() == kernels.matmul(a, b).tobytes()


def test_matmul_handles_transposed_views(rng):
    a = np.asfortranarray(rng.standard_normal((6, 11)))
    b = np.asfortranarray(rng.standard_normal((6, 4)))
    got = kernels.matmul(a.T, b)
    expected = pure_python_matmul(np.asfortranarray(a.T.copy()), b)
    assert got.tobytes() == expected.tobytes()


def test_vec_norm_matches_sequential_sum(rng):
    x = rng.standard_normal(257)
    acc = x[0] * x[0]
    for i in range(1, x.shape[0]):
        acc += x[i] * x[i]
    assert kernels.vec_norm(x) == np.sqrt(acc)
    assert kernels.vec_norm(np.zeros(5)) == 0.0


def test_dot_matches_sequential_sum(rng):
    x = rng.standard_normal(101)
    y = rng.standard_normal(101)
    acc = x[0] * y[0]
    for i in range(1, 101):
        acc += x[i] * y[i]
    assert kernels.dot(x, y[:, None])[0] == acc


def _fortran(rng, shape):
    return np.asfortranarray(rng.standard_normal(shape))


MATMUL_CHUNK = kernels._MATMUL_CHUNK


@pytest.mark.parametrize(
    "shape",
    [
        (5, 3, 2),
        (40, 17, 8),
        (63, 1, 1),
        (1, 1, 1),
        (9, 1, 7),
        (12, 6, 1),
        (1, 8, 5),
        (MATMUL_CHUNK // 8, 3, 17),  # rank-1 updates, column chunks 8, 8, 1
        (MATMUL_CHUNK + 1, 2, 2),  # rank-1 updates, column chunks of 1
        # width-1 outputs
        (7, 2, 1),
        (40, 200, 1),
        (MATMUL_CHUNK // 200 - 1, 200, 1),
        (MATMUL_CHUNK // 200, 200, 1),
        (MATMUL_CHUNK // 200 + 1, 200, 1),
        (512, 3, 1),
        (513, 3, 1),
        # 8000 and 8200 terms in one chunk: around _UNBUFFERED_MIN_TERMS.
        (200, 40, 1),
        (200, 41, 1),
    ],
)
def test_matmul_numpy_matches_scalar_source(rng, shape):
    m, k, n = shape
    a = _fortran(rng, (m, k))
    b = _fortran(rng, (k, n))
    expected = _run_fill(_matmul_fill, a, b)
    assert _run_fill(kernels._matmul_fill_numpy, a, b).tobytes() == expected.tobytes()


def _cancelling_vector(length):
    # A huge leading term followed by ones: left-to-right summation loses
    # every one, pairwise summation keeps them, so the order shows.
    x = np.ones(length)
    x[0] = 2.0**53
    return x


def test_matmul_numpy_matches_scalar_source_on_transposed_views(rng):
    u = _fortran(rng, (30, 7))
    b = _fortran(rng, (30, 4))
    wide = _fortran(rng, (200, 9))
    # Every row of the C-ordered left operand is a cancelling sum.
    cancel = np.asfortranarray(np.tile(_cancelling_vector(200)[:, None], (1, 5)))
    ones = np.ones((200, 1), order="F")
    assert np.sum(cancel.T * ones[:, 0], axis=1)[0] != 2.0**53
    for left, right in [
        (u.T, b),
        (u, u.T),
        (u.T, u),
        (b.T, u),
        (u.T, b[:, :1]),
        (wide.T, ones),
        (cancel.T, ones),
    ]:
        assert left.flags.c_contiguous or right.flags.c_contiguous
        expected = _run_fill(_matmul_fill, left, right)
        got = _run_fill(kernels._matmul_fill_numpy, left, right)
        assert got.tobytes() == expected.tobytes()
    assert np.all(expected == 2.0**53)


def _product_cases(rng, m, kk, n):
    # Gaussian operands; operands whose every entry is a cancelling sum (one
    # huge product then small ones, which only a strictly ascending sum
    # drops); and operands whose products are all -0.0, whose sum is -0.0
    # only from the exact identity.
    scale = 2.0 ** (np.arange(m)[:, None] % 4)
    signs = np.where(np.arange(kk) % 2 == 0, 1.0, -1.0)
    return [
        (rng.standard_normal((m, kk)), rng.standard_normal((kk, n))),
        (
            np.ones((m, kk)) * scale,
            _cancelling_vector(kk)[:, None] * 2.0 ** (np.arange(n) % 8),
        ),
        (np.tile(signs, (m, 1)), np.tile(-0.0 * signs[:, None], (1, n))),
    ]


def _layouts(a, b):
    # Fortran and C operands, the C ones as transposed views of Fortran
    # copies, as the projections pass u.T.
    for left in (np.asfortranarray(a), np.asfortranarray(a.T).T):
        for right in (np.asfortranarray(b), np.asfortranarray(b.T).T):
            yield left, right


def _terms_per_chunk(m, n):
    return MATMUL_CHUNK // (m * n)


# Output shapes at the boundaries of the chunked sum: one entry (accumulate),
# one row or column, 2, 7 and 8 entries (accumulate below 8, reduce from 8),
# a wide output whose chunks hold the fewest terms that still reduce, and
# the outputs around _UNBUFFERED_MIN below.
_BOUNDARY_OUTPUTS = [
    (1, 1),
    (1, 2),
    (2, 1),
    (1, 7),
    (7, 1),
    (1, 8),
    (8, 1),
    (2, 4),
    (1, 17),
    (17, 1),
    (3, 5),
    (64, 64),
    # Term buffers whose contiguous axis, m (n for one row), has 63, 64 or
    # 65 entries: below and at the unbuffered rule.  With 4 or more columns
    # the C-ordered layouts also take the row-major copy of a.T.
    (63, 1),
    (64, 1),
    (65, 1),
    (63, 4),
    (64, 3),
    (64, 4),
    (65, 8),
    (1, 63),
    (1, 64),
]


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["kc-1", "kc", "kc+1"])
@pytest.mark.parametrize(
    "out_shape", _BOUNDARY_OUTPUTS, ids=[f"{m}x{n}" for m, n in _BOUNDARY_OUTPUTS]
)
def test_matmul_numpy_matches_scalar_source_at_chunk_boundaries(
    rng, out_shape, extra
):
    # K = kc - 1 and kc fill one chunk of terms; kc + 1 carries the sum of a
    # full chunk into a second chunk of one term.
    m, n = out_shape
    kk = _terms_per_chunk(m, n) + extra
    for a, b in _product_cases(rng, m, kk, n):
        expected = _run_fill(_matmul_fill, a, b)
        for left, right in _layouts(a, b):
            got = _run_fill(kernels._matmul_fill_numpy, left, right)
            assert got.tobytes() == expected.tobytes()
    # The last case summed -0.0 terms, the one before dropped every small term.
    assert np.all(np.signbit(expected)) and np.all(expected == 0.0)
    a, b = _product_cases(rng, m, kk, n)[1]
    assert np.all(_run_fill(_matmul_fill, a, b) == a[:, :1] * b[0])


@pytest.mark.parametrize(
    "shape",
    [
        (100, 6, 50),  # 5000 entries, kc = 6: every term in one chunk
        (100, 7, 50),  # kc = 6 < 8 terms per chunk: rank-1 updates
        (100, 60, 50),
        (64, 9, 65),  # 4160 entries, kc = 7: rank-1 updates
        (63, 9, 66),  # rank-1 updates on 63-row columns: buffered
        (65, 9, 64),  # rank-1 updates on 65-row columns: unbuffered
        (64, 8, 64),  # 4096 entries, kc = 8: chunks of terms
        (64, 9, 64),
        (200, 3, 200),  # more entries than one chunk: rank-1 updates
    ],
)
def test_matmul_numpy_matches_scalar_source_on_large_outputs(rng, shape):
    m, kk, n = shape
    for a, b in _product_cases(rng, m, kk, n):
        expected = _run_fill(_matmul_fill, a, b)
        for left, right in _layouts(a, b):
            got = _run_fill(kernels._matmul_fill_numpy, left, right)
            assert got.tobytes() == expected.tobytes()


def test_matmul_numpy_cancelling_case_shows_the_order():
    # The cancelling operands above check the order only if a pairwise sum,
    # numpy's sum along a contiguous axis, gets them wrong.
    kk = _terms_per_chunk(8, 1) + 1
    a, b = _product_cases(np.random.default_rng(0), 8, kk, 1)[1]
    expected = _run_fill(_matmul_fill, a, b)
    pairwise = np.sum(a * b[:, 0], axis=1)
    assert np.all(pairwise != expected[:, 0])


def test_matmul_numpy_rejects_a_c_ordered_output(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        kernels._matmul_fill_numpy(a, b, np.empty((3, 2)))


@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 1000])
def test_dot_and_sumsq_numpy_match_scalar_source(rng, length):
    x = rng.standard_normal(length)
    y = rng.standard_normal(length)
    assert kernels.dot(x, y[:, None])[0] == _dot_py(x, y)
    assert kernels._sumsq_numpy(x) == _sumsq_py(x)
    assert kernels.vec_norm(x) == np.sqrt(_sumsq_py(x))


def test_dot_numpy_keeps_left_to_right_order():
    x = _cancelling_vector(1000)
    y = np.ones(1000)
    assert np.sum(x * y) != _dot_py(x, y)
    assert kernels.dot(x, y[:, None])[0] == _dot_py(x, y) == 2.0**53
    assert kernels._sumsq_numpy(np.sqrt(x)) == _sumsq_py(np.sqrt(x))


def _dot_operands(kind, height, width):
    rng = np.random.default_rng(height * 32 + width)
    if kind == "gaussian":
        return rng.standard_normal(height), _fortran(rng, (height, width))
    if kind == "cancelling":
        # Left to right every one is lost against 2^53; pairwise, some are not.
        return _cancelling_vector(height), np.ones((height, width), order="F")
    # Every product is -0.0, so only a sum seeded with a term or with -0.0
    # keeps the sign.
    return np.ones(height), np.full((height, width), -0.0, order="F")


@pytest.mark.parametrize("kind", ["gaussian", "cancelling", "negative-zero"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
# Widths 1-17 take heights around MATMUL_CHUNK // width, where the columns
# fill one chunk of terms or split into two.  Width 162 takes heights
# 201-203, where it is MATMUL_CHUNK // height - 1, + 0 and + 1 (chunks of
# 163, 162 and 161 columns), and width 16384 takes a one-row y at height 1.
@pytest.mark.parametrize("width", [1, 2, 7, 8, 17, 162, MATMUL_CHUNK // 2])
def test_dot_of_a_matrix_is_the_row_of_column_dots(kind, offset, width):
    height = MATMUL_CHUNK // width + offset
    x, y = _dot_operands(kind, height, width)
    row = kernels.dot(x, y)
    assert row.shape == (width,)
    expected = np.array([_dot_py(x, y[:, j]) for j in range(width)])
    assert row.tobytes() == expected.tobytes()
    assert kernels.dot(x, y[:, :1]).tobytes() == expected[:1].tobytes()


def test_dot_rejects_x_and_y_of_different_or_zero_heights():
    y = np.arange(12.0).reshape(4, 3)
    assert kernels.dot(np.ones(4), y).tolist() == [18.0, 22.0, 26.0]
    for x_shape, rows in [((3,), y), ((5,), y), ((4, 1), y), ((0,), y[:0])]:
        message = f"got x {x_shape} and y {rows.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            kernels.dot(np.ones(x_shape), rows)


def _subtract_down_columns_py(terms):
    out = np.empty(terms.shape[1])
    for col in range(terms.shape[1]):
        acc = terms[0, col]
        for i in range(1, terms.shape[0]):
            acc -= terms[i, col]
        out[col] = acc
    return out


def _subtract_reduce_columns():
    # A cancelling column, stored as _weighted_row_sum_numpy stores it (t0,
    # then the negated terms -1): one row at a time drops every one.  And
    # the columns of every sign pattern of three zeros followed by +0.0,
    # whose result is -0.0 only for -0.0, +0.0, +0.0, +0.0 in that order.
    cancel = -_cancelling_vector(1000)
    cancel[0] = 2.0**53
    signs = (0.0, -0.0)
    zeros = [[a, b, c, 0.0] for a in signs for b in signs for c in signs]
    return {
        "cancelling": np.asfortranarray(np.tile(cancel[:, None], (1, 3))),
        "signed-zeros": np.asfortranarray(np.array(zeros).T),
    }


@pytest.mark.parametrize("kind", ["cancelling", "signed-zeros"])
def test_subtract_reduce_runs_down_a_column_one_row_at_a_time(kind):
    # _weighted_row_sum_numpy sums each column with np.subtract.reduce down
    # contiguous memory and relies on numpy subtracting one row at a time,
    # seeded with the first.  A numpy that pairs or vectorises this reduce
    # fails here, by name, before any digest does.
    terms = _subtract_reduce_columns()[kind]
    assert terms.flags.f_contiguous
    got = np.subtract.reduce(terms, axis=0)
    expected = _subtract_down_columns_py(terms)
    assert got.tobytes() == expected.tobytes(), (
        "np.subtract.reduce no longer subtracts down a column one row at a "
        "time, so kernels._weighted_row_sum_numpy is not the ascending sum"
    )
    # Subtracting the pairwise sum of the later rows differs from it.
    paired = terms[0] - np.sum(terms[1:], axis=0)
    if kind == "cancelling":
        assert np.all(expected == 2.0**53) and np.all(paired != expected)
    else:
        assert np.signbit(expected).tolist() == [False] * 4 + [True] + [False] * 3
        assert np.any(np.signbit(paired) != np.signbit(expected))


def _assert_householder_matches_scalar_source(b):
    q1, r1 = _run_householder(_householder_fill, b)
    for order in "FC":
        q2, r2 = _run_householder(kernels._householder_fill_numpy, b, order)
        assert q2.tobytes() == q1.tobytes()
        assert r2.tobytes() == r1.tobytes()
    q3, r3 = kernels.householder_qr(b)
    # local_qr negates columns of q and rows of r in place.
    for factor in (q3, r3):
        assert factor.flags.writeable and factor.flags.f_contiguous
        assert not np.shares_memory(factor, b)
    assert q3.tobytes() == q1.tobytes()
    assert r3.tobytes() == r1.tobytes()


# Tall panels and row sums, 255 to 513 rows: each column of a reflector
# product subtracts hundreds of terms in one reduce, and every multiply
# runs unbuffered.
TALL = 256


@pytest.mark.parametrize(
    "shape",
    [
        (6, 4),
        (25, 10),
        (50, 1),
        (12, 12),
        (1, 1),
        (TALL - 1, 3),
        (TALL, 3),
        (TALL + 1, 3),
        (2 * TALL + 1, 3),
        (2 * TALL + 1, 16),
        (40, 32),
        (TALL + 1, 9),
        # Trailing blocks of 63-66 columns, whose column height m - j falls
        # through _UNBUFFERED_MIN = 64 in the first steps.
        (65, 63),
        (66, 64),
        (67, 65),
        (68, 66),
        # Narrow panels whose trailing updates run unbuffered while the
        # column height m - j is at least 64, and buffered after that.
        (63, 5),
        (64, 2),
        (65, 3),
        (66, 8),
        (70, 12),
    ],
)
def test_householder_numpy_matches_scalar_source(rng, shape):
    b = _fortran(rng, shape)
    _assert_householder_matches_scalar_source(b)
    _assert_householder_matches_scalar_source(np.ascontiguousarray(b))


@pytest.mark.parametrize("zero_col", [0, 2, 4])
def test_householder_numpy_matches_scalar_source_on_zero_column(rng, zero_col):
    # At 70 rows the q updates of the beta = 0 reflector run unbuffered.
    for m in (9, 70):
        b = _fortran(rng, (m, 5))
        b[:, zero_col] = 0.0
        _assert_householder_matches_scalar_source(b)
        _, r = _run_householder(kernels._householder_fill_numpy, b)
        assert r[zero_col, zero_col] == 0.0


def test_householder_qr_rejects_a_wide_panel(rng):
    with pytest.raises(ValueError, match="at least as tall as wide, got 3x5"):
        kernels.householder_qr(_fortran(rng, (3, 5)))


def test_householder_numpy_keeps_row_order_across_chunks():
    # The first reflector is all ones below its head and column 1 is one huge
    # entry followed by ones, so the reflector product for column 1 is a
    # cancelling sum down 32769 rows, more than one product chunk holds
    # (MATMUL_CHUNK entries): only a strictly ascending row sum drops every
    # one.
    m = 2 * (MATMUL_CHUNK // 2) + 1
    b = np.ones((m, 2), order="F")
    b[:, 1] = _cancelling_vector(m)
    _assert_householder_matches_scalar_source(b)


def _row_sum_cases(rng, height, width):
    # Gaussian products; every column a cancelling sum (one huge product
    # then ones, which only a strictly ascending sum drops); products that
    # are all -0.0, whose sum is -0.0 only when seeded with the first term;
    # and a first term x[0] * y[0] of +0.0 or -0.0 before zero products of
    # the other sign, whose sum shows a first term taken with the wrong sign.
    signs = np.where(np.arange(height) % 2 == 0, 1.0, -1.0)
    cancel = np.tile(_cancelling_vector(height)[:, None], (1, width))
    head = np.zeros((height, width))
    head[0] = 1.0
    return [
        (rng.standard_normal(height), rng.standard_normal((height, width))),
        (np.ones(height), cancel * 2.0 ** np.arange(width)),
        (np.r_[0.0, -np.ones(height - 1)], head),
        (np.r_[-0.0, np.ones(height - 1)], head),
        (signs, np.tile(-0.0 * signs[:, None], (1, width))),
    ]


@pytest.mark.parametrize("order", "FC")
# Heights 63 and 64 form their terms buffered and unbuffered.
@pytest.mark.parametrize(
    "height",
    [1, 8, 9, 63, 64, TALL - 1, TALL, TALL + 1, 2 * TALL + 1],
)
@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 17])
def test_weighted_row_sum_numpy_matches_scalar_source(rng, width, height, order):
    for x, y in _row_sum_cases(rng, height, width):
        y = np.array(y, order=order)
        expected = _weighted_row_sum_py(x, y)
        got = kernels._weighted_row_sum_numpy(x, y, np.empty(y.shape, order="F"))
        assert got.shape == (width,)
        assert got.tobytes() == expected.tobytes()
    assert np.all(np.signbit(got)) and np.all(got == 0.0)


def test_weighted_row_sum_cancelling_case_shows_the_order():
    # The cancelling columns above check the order only if a pairwise sum,
    # numpy's sum down a contiguous column, gets them wrong.
    height = 2 * TALL + 1
    x, y = _row_sum_cases(np.random.default_rng(0), height, 17)[1]
    expected = _weighted_row_sum_py(x, y)
    assert np.all(expected == 2.0 ** (53 + np.arange(17)))
    pairwise = np.sum(np.asfortranarray(x[:, None] * y), axis=0)
    assert np.all(pairwise != expected)


def test_householder_orthonormal_and_reconstructs(rng):
    b = np.asfortranarray(rng.standard_normal((30, 8)))
    q, r = kernels.householder_qr(b)
    assert np.linalg.norm(q.T @ q - np.eye(8)) < 1e-14
    assert np.linalg.norm(b - q @ r) < 1e-13 * np.linalg.norm(b)
    assert np.all(np.tril(r, -1) == 0.0)


# Entries whose products and sums are exact or round in telling ways:
# small integers, both signed zeros, and integers scaled by 2^40 or 2^-40.
_ENTRIES = st.one_of(
    st.integers(-8, 8).map(float),
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda k, e: k * 2.0**e, st.integers(-8, 8), st.sampled_from([-40, 40])
    ),
)


@st.composite
def _panels(draw):
    m = draw(st.integers(1, 40))
    p = draw(st.integers(1, min(m, 12)))
    b = draw(hnp.arrays(np.float64, (m, p), elements=_ENTRIES))
    return np.array(b, order=draw(st.sampled_from("CF")))


# Shrinking a counterexample against the pure-Python oracles takes minutes,
# so a failure reports the unshrunk example: the same examples are drawn
# and fail either way.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@settings(
    derandomize=True,
    max_examples=50,
    deadline=None,
    database=None,
    phases=_NO_SHRINK,
)
@given(_panels())
def test_householder_qr_matches_scalar_source_property(b):
    q1, r1 = _run_householder(_householder_fill, b)
    q2, r2 = kernels.householder_qr(b)
    assert q2.tobytes() == q1.tobytes()
    assert r2.tobytes() == r1.tobytes()


def _operand(draw, shape):
    # A Fortran array, or a C-ordered transposed view of one (as u.T).
    x = draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
    if draw(st.booleans()):
        return np.asfortranarray(x)
    return np.asfortranarray(x.T).T


@st.composite
def _products(draw):
    m, kk, n = (draw(st.integers(1, hi)) for hi in (9, 24, 9))
    return _operand(draw, (m, kk)), _operand(draw, (kk, n))


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    phases=_NO_SHRINK,
)
@given(_products())
def test_matmul_matches_scalar_source_property(operands):
    a, b = operands
    expected = pure_python_matmul(a, b)
    assert kernels.matmul(a, b).tobytes() == expected.tobytes()


def _unbuffered_calls():
    # One call down each unbuffered path: a term buffer of 80-row outputs
    # from a strided u.T (copied row-major), rank-1 updates of 300-row
    # columns, 66-wide Householder reflectors, and a bcgs2 whose last
    # projection has 64 rows; and a 70-wide dot, which keeps the buffer.
    rng = np.random.default_rng(5)
    u = _fortran(rng, (300, 80))
    b = _fortran(rng, (300, 16))
    return {
        "matmul-terms": lambda: kernels.matmul(u.T, b),
        "matmul-rank1": lambda: kernels.matmul(u, u.T[:, :16]),
        "dot": lambda: kernels.dot(b[:, 0], u[:, :70]),
        "householder_qr": lambda: kernels.householder_qr(u[:70, :66]),
        "bcgs2": lambda: bcgs2(u, BlockPartition.uniform(80, 16)),
    }


@pytest.mark.parametrize("name", list(_unbuffered_calls()))
def test_kernels_give_back_the_callers_buffer_size(name):
    call = _unbuffered_calls()[name]
    default = np.getbufsize()
    call()
    assert np.getbufsize() == default
    old = np.setbufsize(4096)
    try:
        call()
        assert np.getbufsize() == 4096
        # numpy 2's errstate restores the buffer size on exit; check inside.
        with np.errstate(over="ignore"):
            call()
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_kernels_give_back_the_buffer_size_when_they_raise(rng):
    # A breakdown after unbuffered projections of 80-row outputs.
    a = _fortran(rng, (200, 96))
    a[:, 80:] = 0.0
    # inf * 0 raises inside the unbuffered multiply itself.
    u = _fortran(rng, (200, 80))
    u[3, 5] = np.inf
    b = _fortran(rng, (200, 16))
    b[3] = 0.0
    old = np.setbufsize(4096)
    try:
        with pytest.raises(RankDeficientError, match="block 6"):
            bcgs2(a, BlockPartition.uniform(96, 16))
        assert np.getbufsize() == 4096
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                kernels.matmul(u.T, b)
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def _golden_cases_over_the_rule():
    # The golden factorizations of at least 64 rows and 24 columns: their
    # projections' m-row outputs run unbuffered, their Gram tiles do not.
    golden = json.loads(GOLDEN.read_text())
    shapes = {case: tuple(map(int, case.split("/")[2].split("x"))) for case in golden}
    return {case: golden[case] for case, (m, n) in shapes.items() if m >= 64 and n >= 24}


@pytest.mark.parametrize("bufsize", [16, 1 << 16])
def test_factors_do_not_depend_on_the_callers_buffer_size(bufsize):
    expected = _golden_cases_over_the_rule()
    assert len(expected) >= 12
    old = np.setbufsize(bufsize)
    try:
        got = {case: _digests(case) for case in expected}
    finally:
        np.setbufsize(old)
    assert got == expected


# Calls that sum pairwise or through BLAS, in a different order from the
# scalar loops: kernels.py must not use them, whatever their arguments.
_REORDERING_CALLS = {"sum", "dot", "matmul", "einsum"}


def _reordering_sums(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _REORDERING_CALLS:
            found.append((node.lineno, node.attr))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append((node.lineno, "@"))
    return sorted(found)


def test_kernels_source_avoids_reordering_sums():
    assert _reordering_sums(Path(kernels.__file__).read_text()) == []


def test_reordering_sum_check_sees_each_form():
    source = (
        "np.sum(x)\nx.sum(axis=0)\nnp.dot(x, y)\nnp.matmul(x, y)\n"
        "np.einsum('i,i', x, y)\nx @ y\nx @= y\nnp.add.reduce(x)\n"
    )
    assert [line for line, _ in _reordering_sums(source)] == [1, 2, 3, 4, 5, 6, 7]


def test_import_leaves_numba_out():
    code = (
        "import sys, blockgs; "
        "print('numba' in sys.modules, blockgs.backend())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "numpy"]
