"""Kernel-level tests: fixed summation order, backend parity, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from blockgs import kernels


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


needs_numba = pytest.mark.skipif(
    not kernels.both_backends_available(), reason="numba not installed"
)


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


@needs_numba
@pytest.mark.parametrize("shape", [(5, 3, 2), (40, 17, 8), (63, 1, 1), (30, 30, 30)])
def test_matmul_backend_parity(rng, shape):
    m, k, n = shape
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    via_numba = _run_fill(kernels._matmul_fill_numba, a, b)
    via_numpy = _run_fill(kernels._matmul_fill_numpy, a, b)
    assert via_numba.tobytes() == via_numpy.tobytes()


@needs_numba
def test_norm_and_dot_backend_parity(rng):
    x = rng.standard_normal(97)
    y = rng.standard_normal(97)
    assert kernels._sumsq_numba(x) == kernels._sumsq_py(x)
    assert kernels._dot_numba(x, y) == kernels._dot_py(x, y)


@needs_numba
@pytest.mark.parametrize("shape", [(6, 4), (25, 10), (50, 1), (12, 12)])
def test_householder_backend_parity(rng, shape):
    b = np.asfortranarray(rng.standard_normal(shape))
    q1, r1 = _run_householder(kernels._householder_fill_numba, b)
    q2, r2 = _run_householder(kernels._householder_fill_numpy, b)
    assert q1.tobytes() == q2.tobytes()
    assert r1.tobytes() == r2.tobytes()


# The scalar sources are plain Python until numba compiles them, so they serve
# as a bitwise oracle for the numpy twins whether or not numba is installed.


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
    expected = _run_fill(kernels._matmul_fill, a, b)
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
        expected = _run_fill(kernels._matmul_fill, left, right)
        got = _run_fill(kernels._matmul_fill_numpy, left, right)
        assert got.tobytes() == expected.tobytes()
    assert np.all(expected == 2.0**53)


@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257, 1000])
def test_dot_and_sumsq_numpy_match_scalar_source(rng, length):
    x = rng.standard_normal(length)
    y = rng.standard_normal(length)
    assert kernels._dot_numpy(x, y) == kernels._dot_py(x, y)
    assert kernels._sumsq_numpy(x) == kernels._sumsq_py(x)
    assert kernels.dot(x, y) == kernels._dot_py(x, y)
    assert kernels.vec_norm(x) == np.sqrt(kernels._sumsq_py(x))


def test_dot_numpy_keeps_left_to_right_order():
    x = _cancelling_vector(1000)
    y = np.ones(1000)
    assert np.sum(x * y) != kernels._dot_py(x, y)
    assert kernels._dot_numpy(x, y) == kernels._dot_py(x, y) == 2.0**53
    assert kernels._sumsq_numpy(np.sqrt(x)) == kernels._sumsq_py(np.sqrt(x))


def _assert_householder_matches_scalar_source(b):
    q1, r1 = _run_householder(kernels._householder_fill, b)
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


def test_env_flag_selects_numpy_backend():
    import os

    code = "import blockgs; print(blockgs.backend())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "BLOCKGS_PURE_NUMPY": "1"},
        check=True,
    )
    assert out.stdout.strip() == "numpy"
