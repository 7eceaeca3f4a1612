"""Hot numeric kernels with a fixed floating-point operation order.

Accumulations run over ascending indices and start from the first term
rather than from zero, so repeated calls are reproducible run to run and
bitwise equal to the plain scalar loops the tests keep as an oracle.

The kernels keep that order with whole-array numpy operations.  The product
``out[i, j] = sum_k a[i, k] * b[k, j]`` forms the terms of a chunk of inner
indices as one C-order buffer, one row of ``out``'s entries per index, and
sums the chunk down its rows with ``np.add.reduce(axis=0, initial=-0.0)``
after adding the carried sum into the first row.  With at least 2 entries
per row numpy's inner loop runs across the entries, so each entry still adds
its terms one index at a time, in ascending order, onto the exact identity
``-0.0``.  Outputs of fewer than 8 entries sum the chunk with
``np.add.accumulate`` instead, which adds one row at a time whatever the
layout; outputs too large for a chunk of 8 indices keep one rank-1 update per
inner index.  The Householder reflector products ``v^T Y`` are the one-row
case of the same product, and so are dot products: ``dot(x, Y)`` is the row
``x^T Y``, and a one-column ``Y`` gives a 1x1 output that accumulates.
Norms are ``np.add.accumulate``, which sums strictly left to right.  Reduced
along a contiguous axis, or with one entry per row, numpy would sum pairwise,
and BLAS products reorder the sum, so ``np.sum``, ``np.dot``, ``np.matmul``,
``np.einsum`` and ``@`` round differently and are never used.
"""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# matrix product
# ---------------------------------------------------------------------------


#: Entries in the product's work buffer (256 KB): a chunk of inner indices
#: times the output's entries, or a column chunk of the output on the rank-1
#: path.  It stays in cache, and it is allocated once per call.
_MATMUL_CHUNK = 1 << 15

#: Fewest inner indices per chunk for which the product sums a buffer of
#: terms.  An output of more than _MATMUL_CHUNK / 8 entries (500x16, 96x96,
#: 2000x128) keeps one rank-1 update per inner index, which is as fast there.
_MATMUL_MIN_TERMS = 8

#: Fewest output entries for which a chunk of terms is summed with
#: add.reduce rather than add.accumulate.  Both add the rows in order; the
#: reduce writes one row instead of all of them but pays a call per row, so
#: it loses below about 8 entries.  A single entry must accumulate: its
#: reduce would run down the one column, pairwise.
_REDUCE_MIN_SIZE = 8


def _matmul_fill_numpy(a, b, out):
    # out[i, j] = sum_k a[i, k] * b[k, j], k ascending, seeded with the k=0
    # term so that a width-1 product is a bare multiplication: the order of a
    # scalar loop over (j, i, k).
    if not out.flags.f_contiguous:
        raise ValueError("the product's output array must be Fortran-ordered")
    m, n = out.shape
    kk = a.shape[1]
    size = m * n
    terms = min(kk, _MATMUL_CHUNK // size)
    if terms < min(kk, _MATMUL_MIN_TERMS):
        # One rank-1 update per inner index on column chunks of out: every
        # entry gets the same rounded product added in the same order.
        width = max(1, _MATMUL_CHUNK // m)
        np.multiply(a[:, :1], b[:1, :], out=out)
        tmp = np.empty((m, min(width, n)), order="F")
        for lo in range(0, n, width):
            chunk = out[:, lo : lo + width]
            scratch = tmp[:, : chunk.shape[1]]
            # a_k is column k of a as m-by-1, b_k row k of b's chunk as 1-by-width.
            for a_k, b_k in zip(a.T[1:, :, None], b[1:, None, lo : lo + width]):
                np.multiply(a_k, b_k, out=scratch)
                chunk += scratch
        return
    # Row t of a chunk holds the terms of inner index lo + t, laid out like
    # out (buf[t, j, i] = b[k, j] * a[i, k]), so its sums land in out's
    # memory.  The carried sum is added into the chunk's first row
    # (blk[0] += acc is the same IEEE addition as acc += blk[0]), then the
    # chunk is summed down its rows onto -0.0, which adds the k=0 term
    # exactly.
    buf = np.empty((terms, n, m))
    rows = buf.reshape(terms, size)
    acc = out.T.reshape(size)
    for lo in range(0, kk, terms):
        hi = min(lo + terms, kk)
        np.multiply(b[lo:hi, :, None], a.T[lo:hi, None, :], out=buf[: hi - lo])
        blk = rows[: hi - lo]
        if lo:
            blk[0] += acc
        if size >= _REDUCE_MIN_SIZE:
            np.add.reduce(blk, axis=0, initial=-0.0, out=acc)
        else:
            acc[:] = np.add.accumulate(blk, axis=0, out=blk)[-1]


# ---------------------------------------------------------------------------
# column norm
# ---------------------------------------------------------------------------


def _sumsq_numpy(x):
    return np.add.accumulate(x * x)[-1]


# ---------------------------------------------------------------------------
# Householder panel factorization
# ---------------------------------------------------------------------------


def _weighted_row_sum_numpy(x, y):
    # sum_i x[i] * y[i, :] over ascending rows, seeded with the i=0 term: the
    # order of a scalar `w += x[i] * y[i, col]` loop.  It is the one-row
    # product x^T y.
    w = np.empty((1, y.shape[1]), order="F")
    _matmul_fill_numpy(x[None, :], y, w)
    return w[0]


def _householder_fill_numpy(r, q, v, beta):
    # r: working copy of the panel, overwritten with the triangular factor.
    # q: identity panel on entry, explicit orthonormal factor on exit.
    # v, beta: scratch for the reflectors (unnormalized) and their 2/v^T v
    # scale factors; this formulation stays exact on integer-valued panels.
    # The norms and reflector dot products accumulate over ascending rows,
    # vectorized across the trailing columns.  householder_qr passes r and q
    # row-major, so the reflector products and updates stream along rows.
    p = r.shape[1]
    for j in range(p):
        normx = np.sqrt(_sumsq_numpy(r[j:, j]))
        if normx == 0.0:
            v[j:, j] = 0.0
            beta[j] = 0.0
            continue
        s = 1.0 if r[j, j] >= 0.0 else -1.0
        v[j + 1 :, j] = r[j + 1 :, j]
        v[j, j] = r[j, j] + s * normx
        beta[j] = 2.0 / _sumsq_numpy(v[j:, j])
        w = _weighted_row_sum_numpy(v[j:, j], r[j:, j:])
        r[j:, j:] -= np.multiply.outer(v[j:, j], beta[j] * w)
    # Reflector j acts on q[j:, j:] only: columns < j of those rows are
    # still exact zeros, as in LAPACK's dorg2r, so skipping them is exact.
    for j in range(p - 1, -1, -1):
        w = _weighted_row_sum_numpy(v[j:, j], q[j:, j:])
        q[j:, j:] -= np.multiply.outer(v[j:, j], beta[j] * w)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic product a @ b with ascending-index accumulation.

    Inputs must be 2-D float64 arrays with a.shape[1] == b.shape[0] >= 1.
    Shape validation lives in :mod:`blockgs.core`; this is the raw kernel.
    """
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float64, order="F")
    _matmul_fill_numpy(a, b, out)
    return out


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ascending-index dot products of a 1-D float64 array x with an m-by-n y.

    Returns the length-n row ``x^T Y`` of its columns' dot products, each
    summed in the same order.
    """
    return _weighted_row_sum_numpy(x, y)


def vec_norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 array, ascending-index sum of squares."""
    if x.shape[0] == 0:
        return 0.0
    return math.sqrt(_sumsq_numpy(x))


def householder_qr(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin Householder QR of an m-by-p panel (m >= p).

    Returns (q, r) with q the explicit m-by-p orthonormal factor obtained by
    applying the accumulated reflectors to the first p columns of the
    identity, and r the p-by-p triangular factor with exact zeros below the
    diagonal.  No sign normalization is applied here.
    """
    m, p = b.shape
    rwork = np.array(b, dtype=np.float64, order="C", copy=True)
    q = np.eye(m, p)
    v = np.zeros((m, p), dtype=np.float64, order="F")
    beta = np.zeros(p, dtype=np.float64)
    _householder_fill_numpy(rwork, q, v, beta)
    r = np.asfortranarray(np.triu(rwork[:p, :p]))
    # Free the work arrays before the Fortran copy of q, so the three are
    # never alive at once.
    del rwork, v
    return np.asfortranarray(q), r
