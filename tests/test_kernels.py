"""Kernel-level tests: fixed summation order against scalar oracles, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from blockgs import kernels


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


def _run_householder(fill, b):
    m, p = b.shape
    rwork = np.array(b, dtype=np.float64, order="F", copy=True)
    q = np.asfortranarray(np.eye(m, p))
    v = np.zeros((m, p), order="F")
    beta = np.zeros(p)
    fill(rwork, q, v, beta)
    return q, np.asfortranarray(np.triu(rwork[:p, :p]))


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
    assert kernels.dot(x, y) == acc


def _fortran(rng, shape):
    return np.asfortranarray(rng.standard_normal(shape))


MATMUL_CHUNK = kernels._MATMUL_CHUNK
MATVEC_MAX_ROWS = kernels._MATVEC_MAX_ROWS


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
        (MATMUL_CHUNK // 8, 3, 17),  # column chunks of 8, 8 and 1
        (MATMUL_CHUNK + 1, 2, 2),  # column chunks of one column
        # width-1 outputs: one accumulate per row chunk of the terms
        (7, 2, 1),
        (40, 200, 1),
        (MATMUL_CHUNK // 200 - 1, 200, 1),
        (MATMUL_CHUNK // 200, 200, 1),  # one full row chunk
        (MATMUL_CHUNK // 200 + 1, 200, 1),  # a second chunk of one row
        (MATVEC_MAX_ROWS, 3, 1),
        (MATVEC_MAX_ROWS + 1, 3, 1),  # tall: back to rank-1 updates
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


@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 1000])
def test_dot_and_sumsq_numpy_match_scalar_source(rng, length):
    x = rng.standard_normal(length)
    y = rng.standard_normal(length)
    assert kernels._dot_numpy(x, y) == _dot_py(x, y)
    assert kernels._sumsq_numpy(x) == _sumsq_py(x)
    assert kernels.dot(x, y) == _dot_py(x, y)
    assert kernels.vec_norm(x) == np.sqrt(_sumsq_py(x))


def test_dot_numpy_keeps_left_to_right_order():
    x = _cancelling_vector(1000)
    y = np.ones(1000)
    assert np.sum(x * y) != _dot_py(x, y)
    assert kernels._dot_numpy(x, y) == _dot_py(x, y) == 2.0**53
    assert kernels._sumsq_numpy(np.sqrt(x)) == _sumsq_py(np.sqrt(x))


def _assert_householder_matches_scalar_source(b):
    q1, r1 = _run_householder(_householder_fill, b)
    q2, r2 = _run_householder(kernels._householder_fill_numpy, b)
    assert q2.tobytes() == q1.tobytes()
    assert r2.tobytes() == r1.tobytes()


ROW_CHUNK = kernels._ROW_CHUNK


@pytest.mark.parametrize(
    "shape",
    [
        (6, 4),
        (25, 10),
        (50, 1),
        (12, 12),
        (1, 1),
        (ROW_CHUNK - 1, 3),
        (ROW_CHUNK, 3),
        (ROW_CHUNK + 1, 3),
        (2 * ROW_CHUNK + 1, 3),
    ],
)
def test_householder_numpy_matches_scalar_source(rng, shape):
    _assert_householder_matches_scalar_source(_fortran(rng, shape))


@pytest.mark.parametrize("zero_col", [0, 2, 4])
def test_householder_numpy_matches_scalar_source_on_zero_column(rng, zero_col):
    b = _fortran(rng, (9, 5))
    b[:, zero_col] = 0.0
    _assert_householder_matches_scalar_source(b)
    _, r = _run_householder(kernels._householder_fill_numpy, b)
    assert r[zero_col, zero_col] == 0.0


def test_householder_numpy_keeps_row_order_across_chunks():
    # The first reflector is all ones below its head and column 1 is one huge
    # entry followed by ones, so the reflector product for column 1 is a
    # cancelling sum over three chunks: only a strictly ascending row sum,
    # carried across chunks, drops every one.
    m = 2 * ROW_CHUNK + 1
    b = np.ones((m, 2), order="F")
    b[:, 1] = _cancelling_vector(m)
    _assert_householder_matches_scalar_source(b)


def test_householder_orthonormal_and_reconstructs(rng):
    b = np.asfortranarray(rng.standard_normal((30, 8)))
    q, r = kernels.householder_qr(b)
    assert np.linalg.norm(q.T @ q - np.eye(8)) < 1e-14
    assert np.linalg.norm(b - q @ r) < 1e-13 * np.linalg.norm(b)
    assert np.all(np.tril(r, -1) == 0.0)


def test_import_leaves_numba_out():
    # The former backend switch is set and must have no effect.
    code = (
        "import sys, blockgs; "
        "print('numba' in sys.modules, blockgs.backend())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "BLOCKGS_PURE_NUMPY": "0"},
        check=True,
    )
    assert out.stdout.split() == ["False", "numpy"]
