"""Full QR factorizations built from the step kernels.

Two-pass methods (``cgs2``, ``bcgs2``) are the product of this package; the
one-pass baselines (``cgs``, ``mgs``, ``bcgs``) exist for loss-of-orthogonality
comparisons.  Every driver returns a :class:`FactorizationTrace`: the factors
plus one audit record per block (norms, inverse norms of the diagonal blocks,
running orthogonality defect) so the stability checks can run afterwards
without refactoring.

``cgs``, ``cgs2``, ``bcgs`` and ``bcgs2`` are one block loop,
:func:`_gram_schmidt`, that differs only in its intra-block step:

* ``bcgs2`` passes :func:`block_cgs2_step` and ``bcgs`` passes
  :func:`block_cgs_step`, over the caller's partition;
* ``cgs`` passes :func:`block_cgs_step` over the all-ones partition;
* ``cgs2`` passes :func:`cgs2_step`, recast as a block step result, over the
  all-ones partition.  ``cgs2_step`` is kept as an independent scalar path,
  so ``cgs2`` equal to ``bcgs2`` with the all-ones partition compares two
  implementations and does not hold by construction.

The first block always goes through :func:`local_qr`, so a zero or
overflowing first column fails its rank test.  ``mgs`` keeps its own loop:
it subtracts one basis column at a time, which is a different algorithm,
not a different step.  ``_project`` is not called here; it stays
imported, as do the steps, because the benchmark's tracer
(``perfbench/layers.py``) wraps these module bindings.

The running defect is a bordered Gram update: each driver keeps one n-by-n
work array, and at each block :func:`orthogonality_defect` adds only the new
border ``Q[:, :hi]^T Q[:, lo:hi]`` to the Gram matrix of the earlier columns.
The audit thus costs O(m n^2) in all, plus one SVD of ``I - G`` per block,
instead of O(m n^3 / p) for a fresh ``Q^T Q`` at every block, and its values
are bitwise those of the fresh product.  Width-1 blocks take their record
norms without an SVD: the column norm and the reciprocal of the diagonal.

Drivers record and never abort on a failed stability check; they only raise
on non-finite input (:class:`SpectralNormError`) and on hard numerical
breakdown (rank-deficient panels, zero remainders), naming the block or
column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    BlockPartition,
    QRFactorization,
    _require_finite,
    as_matrix,
    orthogonality_defect,
    spectral_norm,
    upper_triangular_inverse,
)
from .errors import GramSchmidtBreakdownError, RankDeficientError
from .localqr import local_qr
from .steps import BlockStepResult, _project, block_cgs2_step, block_cgs_step, cgs2_step


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
    _require_finite(a)
    return a


def _wrap_breakdown(exc, kind: str, index: int):
    if isinstance(exc, RankDeficientError):
        return RankDeficientError(f"{kind} {index}: {exc}", exc.index, exc.magnitude)
    return GramSchmidtBreakdownError(f"{kind} {index}: {exc}")


def _gram_schmidt(a, blocks, step, unit: str) -> FactorizationTrace:
    """The block Gram-Schmidt loop shared by ``cgs``, ``cgs2``, ``bcgs``, ``bcgs2``.

    The first block is factored by :func:`local_qr`; every later block is
    absorbed by ``step(q[:, :lo], panel)`` and the triangular factor grows by
    the bordered update ``r = [[r, s], [0, r_new]]``.  ``blocks`` None means
    one column per block.  Breakdowns are re-raised as ``"<unit> k: ..."``.
    """
    a = _validate_input(a)
    m, n = a.shape
    blocks = BlockPartition.ones(n) if blocks is None else _as_partition(blocks, n)

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    gram = np.empty((n, n), order="F")
    records = []
    for k, (lo, hi) in enumerate(blocks.column_spans(), start=1):
        panel = a[:, lo:hi]
        try:
            res = local_qr(panel) if k == 1 else step(q[:, :lo], panel)
        except (RankDeficientError, GramSchmidtBreakdownError) as exc:
            raise _wrap_breakdown(exc, unit, k) from exc
        q[:, lo:hi] = res.q
        r[lo:hi, lo:hi] = res.r
        if k > 1:
            r[:lo, lo:hi] = res.s
        if hi - lo == 1:
            block_norm = kernels.vec_norm(panel[:, 0])
            rkk_inv_norm = 1.0 / res.r[0, 0]
        else:
            block_norm = spectral_norm(panel)
            rkk_inv_norm = spectral_norm(upper_triangular_inverse(res.r))
        records.append(
            BlockRecord(
                index=k,
                t_prev=lo,
                width=hi - lo,
                block_norm=block_norm,
                rkk_inv_norm=rkk_inv_norm,
                r2_inv_norm=None if k == 1 else res.r2_inv_norm,
                defect=orthogonality_defect(q[:, :hi], gram, lo),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))


def _cgs2_column_step(u, b) -> BlockStepResult:
    """:func:`cgs2_step` with its result recast as a width-1 block step's."""
    res = cgs2_step(u, b)
    return BlockStepResult(
        q=res.q_b,
        r=np.full((1, 1), res.r_b, order="F"),
        s=res.s_b,
        r2_inv_norm=1.0 / res.r2,
    )


def bcgs2(a, blocks) -> FactorizationTrace:
    """Reorthogonalized block classical Gram-Schmidt QR.

    The first block goes through the panel factorization directly; every
    later block is absorbed with a two-pass block step.  Breakdowns raise
    :class:`RankDeficientError` naming the block.
    """
    return _gram_schmidt(a, blocks, block_cgs2_step, "block")


def bcgs(a, blocks) -> FactorizationTrace:
    """One-pass block classical Gram-Schmidt baseline."""
    return _gram_schmidt(a, blocks, block_cgs_step, "block")


def cgs2(a) -> FactorizationTrace:
    """Classical Gram-Schmidt with reorthogonalization, column at a time.

    Bitwise identical to ``bcgs2`` with the all-ones partition, records
    included: the width-1 panel factorization is plain normalization, so
    both drivers execute the same floating-point operations.  A zero first
    column raises :class:`RankDeficientError`; a later column that vanishes
    raises :class:`GramSchmidtBreakdownError`; both name the column.
    """
    return _gram_schmidt(a, None, _cgs2_column_step, "column")


def cgs(a) -> FactorizationTrace:
    """One-pass classical Gram-Schmidt baseline: ``bcgs`` with one column per block."""
    return _gram_schmidt(a, None, block_cgs_step, "column")


def mgs(a) -> FactorizationTrace:
    """One-pass modified Gram-Schmidt baseline.

    A column that vanishes raises :class:`RankDeficientError` naming it.
    """
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
        try:
            res = local_qr(v)
        except RankDeficientError as exc:
            raise _wrap_breakdown(exc, "column", k) from exc
        q[:, k - 1 : k] = res.q
        r[k - 1, k - 1] = res.r[0, 0]
        records.append(
            BlockRecord(
                index=k,
                t_prev=k - 1,
                width=1,
                block_norm=kernels.vec_norm(a[:, k - 1]),
                rkk_inv_norm=1.0 / res.r[0, 0],
                r2_inv_norm=None,
                defect=orthogonality_defect(q[:, :k], gram, k - 1),
            )
        )
    return FactorizationTrace(QRFactorization(q, r), tuple(records))
