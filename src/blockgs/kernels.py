"""Hot numeric kernels with a fixed floating-point operation order.

Accumulations run over ascending indices and start from the first term
rather than from zero, so repeated calls are reproducible run to run and
bitwise equal to the plain scalar loops the tests keep as an oracle.

The kernels keep that order with whole-array numpy operations: the product
is one rank-1 update per inner index (on column chunks of the output), or
one accumulate along the rows of ``a * b[:, 0]`` when the output is a short
column, and the dot products and norms are ``np.add.accumulate``, which sums
strictly left to right (in bounded row chunks for the Householder
reflectors).  Pairwise or BLAS reductions (``np.sum``, ``add.reduce``,
``np.dot``, ``@``) round differently and are never used.
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


#: Entries per column chunk of the product's output.  A chunk and its
#: scratch buffer stay in cache through the K rank-1 updates; a whole tall
#: output (2000x128) would not, and its scratch would double peak memory.
_MATMUL_CHUNK = 1 << 15

#: Most output rows for which the product sums a width-1 output with one
#: accumulate.  An accumulate adds one term at a time per row, while a
#: rank-1 update adds a whole column at once, so tall outputs keep the
#: rank-1 loop (the two cost the same at 400 to 600 rows).  The 2000x64
#: by 64x1 products of a width-1 block at m=2000 are on the tall side.
_MATVEC_MAX_ROWS = 512


def _matmul_fill_numpy(a, b, out):
    # out[i, j] = sum_k a[i, k] * b[k, j], k ascending, seeded with the k=0
    # term so that a width-1 product is a bare multiplication.  The order is
    # that of a scalar loop over (j, i, k), as one rank-1 update per inner
    # index k: every entry gets the same rounded product added in the same
    # order, but the loop runs K times per column chunk, not n*K times.
    m, n = out.shape
    kk = a.shape[1]
    if n == 1 and m <= _MATVEC_MAX_ROWS:
        # Matrix-vector product: each entry is its row of a * b[:, 0] summed
        # by add.accumulate, left to right from the k=0 product, one
        # accumulate per row chunk instead of K rank-1 updates.
        rows = max(1, _MATMUL_CHUNK // kk)
        for lo in range(0, m, rows):
            terms = a[lo : lo + rows] * b[:, 0]
            out[lo : lo + rows, 0] = np.add.accumulate(terms, axis=1)[:, -1]
        return
    width = max(1, _MATMUL_CHUNK // m)
    np.multiply(a[:, :1], b[:1, :], out=out)
    if kk == 1:
        return
    tmp = np.empty((m, min(width, n)), order="F")
    for lo in range(0, n, width):
        chunk = out[:, lo : lo + width]
        scratch = tmp[:, : chunk.shape[1]]
        # a_k is column k of a as m-by-1, b_k row k of b's chunk as 1-by-width.
        for a_k, b_k in zip(a.T[1:, :, None], b[1:, None, lo : lo + width]):
            np.multiply(a_k, b_k, out=scratch)
            chunk += scratch


# ---------------------------------------------------------------------------
# dot product and column norm
# ---------------------------------------------------------------------------


def _dot_numpy(x, y):
    return np.add.accumulate(x * y)[-1]


def _sumsq_numpy(x):
    return np.add.accumulate(x * x)[-1]


# ---------------------------------------------------------------------------
# Householder panel factorization
# ---------------------------------------------------------------------------


#: Rows per chunk in the reflector products; bounds the temporary to
#: _ROW_CHUNK x (panel width) entries.
_ROW_CHUNK = 256


def _weighted_row_sum_numpy(x, y):
    # sum_i x[i] * y[i, :] over ascending rows, seeded with the i=0 term: the
    # order of a scalar `w += x[i] * y[i, col]` loop.  Each row chunk is
    # summed with add.accumulate along axis 0, after the running sum is added
    # into the chunk's first row (blk[0] += w is the same IEEE addition as
    # w += blk[0]).
    w = None
    for lo in range(0, x.shape[0], _ROW_CHUNK):
        hi = lo + _ROW_CHUNK
        blk = x[lo:hi, None] * y[lo:hi]
        if w is not None:
            blk[0] += w
        np.add.accumulate(blk, axis=0, out=blk)
        w = blk[-1].copy()  # a view would keep the chunk alive
    return w


def _householder_fill_numpy(r, q, v, beta):
    # r: working copy of the panel, overwritten with the triangular factor.
    # q: identity panel on entry, explicit orthonormal factor on exit.
    # v, beta: scratch for the reflectors (unnormalized) and their 2/v^T v
    # scale factors; this formulation stays exact on integer-valued panels.
    # The norms and reflector dot products accumulate over ascending rows,
    # vectorized across the trailing columns.
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
    for j in range(p - 1, -1, -1):
        w = _weighted_row_sum_numpy(v[j:, j], q[j:, :])
        q[j:, :] -= np.multiply.outer(v[j:, j], beta[j] * w)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic product a @ b with ascending-index accumulation.

    Inputs must be 2-D float64 arrays with a.shape[1] == b.shape[0] >= 1.
    Shape validation lives in :mod:`blockgs.core`; this is the raw kernel.
    """
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float64, order="F")
    _matmul_fill_numpy(a, b, out)
    return out


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Ascending-index dot product of two 1-D float64 arrays."""
    return float(_dot_numpy(x, y))


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
    rwork = np.array(b, dtype=np.float64, order="F", copy=True)
    q = np.asfortranarray(np.eye(m, p))
    v = np.zeros((m, p), dtype=np.float64, order="F")
    beta = np.zeros(p, dtype=np.float64)
    _householder_fill_numpy(rwork, q, v, beta)
    r = np.asfortranarray(np.triu(rwork[:p, :p]))
    return q, r

