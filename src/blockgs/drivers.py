"""Full QR factorizations built from the step kernels.

Two-pass methods (``cgs2``, ``bcgs2``) are the product of this package; the
one-pass baselines (``cgs``, ``mgs``, ``bcgs``) exist for loss-of-orthogonality
comparisons.  Every driver returns a :class:`FactorizationTrace`: the factors
plus one audit record per block (norms, inverse norms of the diagonal blocks,
running orthogonality defect) so the stability checks can run afterwards
without refactoring.

The running defect is a bordered Gram update: each driver keeps one n-by-n
work array, and at each block :func:`orthogonality_defect` adds only the new
border ``Q[:, :hi]^T Q[:, lo:hi]`` to the Gram matrix of the earlier columns.
The audit thus costs O(m n^2) in all, plus one SVD of ``I - G`` per block,
instead of O(m n^3 / p) for a fresh ``Q^T Q`` at every block, and its values
are bitwise those of the fresh product.

Drivers record and never abort on a failed stability check; they only raise
on hard numerical breakdown (rank-deficient panels, zero remainders).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    BlockPartition,
    QRFactorization,
    as_matrix,
    orthogonality_defect,
    spectral_norm,
    upper_triangular_inverse,
)
from .errors import GramSchmidtBreakdownError, RankDeficientError
from .localqr import local_qr
from .steps import _project, block_cgs2_step, block_cgs_step, cgs2_step


@dataclass(frozen=True)
class BlockRecord:
    """Audit data for one processed block.

    ``r2_inv_norm`` is None for the first block and for one-pass methods,
    which have no second-pass triangular factor.
    """

    index: int
    t_prev: int
    width: int
    block_norm: float
    rkk_inv_norm: float
    r2_inv_norm: float | None
    defect: float


@dataclass(frozen=True)
class FactorizationTrace:
    """A factorization together with its per-block audit records."""

    factorization: QRFactorization
    per_block: tuple[BlockRecord, ...]

    def __post_init__(self):
        if len(self.per_block) < 1:
            raise ValueError("a trace needs at least one block record")
        t = 0
        for rec in self.per_block:
            if rec.t_prev != t:
                raise ValueError(
                    f"block {rec.index} claims {rec.t_prev} prior columns, expected {t}"
                )
            t += rec.width
        if t != self.factorization.r.shape[0]:
            raise ValueError("block widths do not cover the factorization")

    @property
    def q(self) -> np.ndarray:
        return self.factorization.q

    @property
    def r(self) -> np.ndarray:
        return self.factorization.r


def _as_partition(blocks, n: int) -> BlockPartition:
    if not isinstance(blocks, BlockPartition):
        blocks = BlockPartition(tuple(blocks))
    blocks.validate_total(n)
    return blocks


def _validate_input(a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"need rows >= cols, got {a.shape[0]}x{a.shape[1]}")
    return a


def _wrap_breakdown(exc, kind: str, index: int):
    if isinstance(exc, RankDeficientError):
        return RankDeficientError(f"{kind} {index}: {exc}", exc.index, exc.magnitude)
    return GramSchmidtBreakdownError(f"{kind} {index}: {exc}")


def _triangular_inverse_norm(r: np.ndarray) -> float:
    return spectral_norm(upper_triangular_inverse(r))


def bcgs2(a, blocks) -> FactorizationTrace:
    """Reorthogonalized block classical Gram-Schmidt QR.

    The first block goes through the panel factorization directly; every
    later block is absorbed with a two-pass block step and the triangular
    factor grows by the bordered update ``r = [[r, s], [0, r_new]]``.
    """
    a = _validate_input(a)
    m, n = a.shape
    blocks = _as_partition(blocks, n)

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    gram = np.empty((n, n), order="F")
    records = []
    for k, (lo, hi) in enumerate(blocks.column_spans(), start=1):
        panel = a[:, lo:hi]
        width = hi - lo
        if k == 1:
            try:
                res = local_qr(panel)
            except (RankDeficientError, GramSchmidtBreakdownError) as exc:
                raise _wrap_breakdown(exc, "block", 1) from exc
            q[:, :hi] = res.q
            r[:hi, :hi] = res.r
            r_diag = res.r
            r2_inv_norm = None
        else:
            try:
                step = block_cgs2_step(q[:, :lo], panel)
            except (RankDeficientError, GramSchmidtBreakdownError) as exc:
                raise _wrap_breakdown(exc, "block", k) from exc
            q[:, lo:hi] = step.q
            r[:lo, lo:hi] = step.s
            r[lo:hi, lo:hi] = step.r
            r_diag = step.r
            r2_inv_norm = step.r2_inv_norm
        records.append(
            BlockRecord(
                index=k,
                t_prev=lo,
                width=width,
                block_norm=spectral_norm(panel),
                rkk_inv_norm=_triangular_inverse_norm(r_diag),
                r2_inv_norm=r2_inv_norm,
                defect=orthogonality_defect(q[:, :hi], gram, lo),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))


def cgs2(a) -> FactorizationTrace:
    """Classical Gram-Schmidt with reorthogonalization, column at a time.

    Bitwise identical to ``bcgs2`` with the all-ones partition: the width-1
    panel factorization is plain normalization, so both drivers execute the
    same floating-point operations.
    """
    a = _validate_input(a)
    m, n = a.shape

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    gram = np.empty((n, n), order="F")
    records = []

    r00 = kernels.vec_norm(a[:, 0])
    if r00 == 0.0:
        raise GramSchmidtBreakdownError("column 1: the first column is zero")
    q[:, 0] = a[:, 0] / r00
    r[0, 0] = r00
    records.append(
        BlockRecord(
            index=1,
            t_prev=0,
            width=1,
            block_norm=r00,
            rkk_inv_norm=1.0 / r00,
            r2_inv_norm=None,
            defect=orthogonality_defect(q[:, :1], gram),
        )
    )
    for k in range(2, n + 1):
        col = a[:, k - 1 : k]
        try:
            step = cgs2_step(q[:, : k - 1], col)
        except GramSchmidtBreakdownError as exc:
            raise GramSchmidtBreakdownError(f"column {k}: {exc}") from exc
        q[:, k - 1 : k] = step.q_b
        r[: k - 1, k - 1 : k] = step.s_b
        r[k - 1, k - 1] = step.r_b
        records.append(
            BlockRecord(
                index=k,
                t_prev=k - 1,
                width=1,
                block_norm=kernels.vec_norm(col[:, 0]),
                rkk_inv_norm=1.0 / step.r_b,
                r2_inv_norm=1.0 / step.r2,
                defect=orthogonality_defect(q[:, :k], gram, k - 1),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))


def cgs(a) -> FactorizationTrace:
    """One-pass classical Gram-Schmidt baseline."""
    a = _validate_input(a)
    m, n = a.shape

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    gram = np.empty((n, n), order="F")
    records = []

    r00 = kernels.vec_norm(a[:, 0])
    if r00 == 0.0:
        raise GramSchmidtBreakdownError("column 1: the first column is zero")
    q[:, 0] = a[:, 0] / r00
    r[0, 0] = r00
    records.append(
        BlockRecord(1, 0, 1, r00, 1.0 / r00, None, orthogonality_defect(q[:, :1], gram))
    )
    for k in range(2, n + 1):
        col = a[:, k - 1 : k]
        s, y = _project(q[:, : k - 1], col)
        rkk = kernels.vec_norm(y[:, 0])
        if rkk == 0.0:
            raise GramSchmidtBreakdownError(
                f"column {k}: the projected column vanished"
            )
        q[:, k - 1 : k] = y / rkk
        r[: k - 1, k - 1 : k] = s
        r[k - 1, k - 1] = rkk
        records.append(
            BlockRecord(
                index=k,
                t_prev=k - 1,
                width=1,
                block_norm=kernels.vec_norm(col[:, 0]),
                rkk_inv_norm=1.0 / rkk,
                r2_inv_norm=None,
                defect=orthogonality_defect(q[:, :k], gram, k - 1),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))


def mgs(a) -> FactorizationTrace:
    """One-pass modified Gram-Schmidt baseline."""
    a = _validate_input(a)
    m, n = a.shape

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    gram = np.empty((n, n), order="F")
    records = []
    for k in range(1, n + 1):
        v = np.array(a[:, k - 1 : k], order="F", copy=True)
        for i in range(k - 1):
            rik = kernels.dot(q[:, i], v[:, 0])
            r[i, k - 1] = rik
            v -= q[:, i : i + 1] * rik
        rkk = kernels.vec_norm(v[:, 0])
        if rkk == 0.0:
            raise GramSchmidtBreakdownError(
                f"column {k}: the projected column vanished"
            )
        q[:, k - 1 : k] = v / rkk
        r[k - 1, k - 1] = rkk
        records.append(
            BlockRecord(
                index=k,
                t_prev=k - 1,
                width=1,
                block_norm=kernels.vec_norm(a[:, k - 1]),
                rkk_inv_norm=1.0 / rkk,
                r2_inv_norm=None,
                defect=orthogonality_defect(q[:, :k], gram, k - 1),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))


def bcgs(a, blocks) -> FactorizationTrace:
    """One-pass block classical Gram-Schmidt baseline."""
    a = _validate_input(a)
    m, n = a.shape
    blocks = _as_partition(blocks, n)

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    gram = np.empty((n, n), order="F")
    records = []
    for k, (lo, hi) in enumerate(blocks.column_spans(), start=1):
        panel = a[:, lo:hi]
        try:
            if k == 1:
                res = local_qr(panel)
                q[:, :hi] = res.q
                r[:hi, :hi] = res.r
                r_diag = res.r
            else:
                step = block_cgs_step(q[:, :lo], panel)
                q[:, lo:hi] = step.q
                r[:lo, lo:hi] = step.s
                r[lo:hi, lo:hi] = step.r
                r_diag = step.r
        except (RankDeficientError, GramSchmidtBreakdownError) as exc:
            raise _wrap_breakdown(exc, "block", k) from exc
        records.append(
            BlockRecord(
                index=k,
                t_prev=lo,
                width=hi - lo,
                block_norm=spectral_norm(panel),
                rkk_inv_norm=_triangular_inverse_norm(r_diag),
                r2_inv_norm=None,
                defect=orthogonality_defect(q[:, :hi], gram, lo),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))
