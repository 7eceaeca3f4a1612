"""Full QR factorizations built from the step kernels.

Two-pass methods (``cgs2``, ``bcgs2``) are the product of this package; the
one-pass baselines (``cgs``, ``mgs``, ``bcgs``) exist for loss-of-orthogonality
comparisons.  Every driver returns a :class:`FactorizationTrace`: the factors
plus one audit record per block (norms, and inverse norms of the diagonal
blocks and of each ``r2``) so the stability checks can run afterwards
without refactoring, and the defect of the finished ``Q`` on the last record.

``cgs``, ``cgs2``, ``bcgs`` and ``bcgs2`` are one block loop,
:func:`_gram_schmidt`, that differs only in its intra-block step:

* ``bcgs2`` passes :func:`block_cgs2_step` and ``bcgs`` passes
  :func:`block_cgs_step`, over the caller's partition;
* ``cgs`` passes :func:`block_cgs_step` over the all-ones partition;
* ``cgs2`` passes :func:`cgs2_step` over the all-ones partition.  Every
  step returns a :class:`BlockStepResult`; ``cgs2_step``'s is the width-1
  case, computed by its own scalar code, so ``cgs2`` equal to ``bcgs2`` with
  the all-ones partition compares two implementations and does not hold by
  construction.

The first block always goes through :func:`local_qr`, so a zero or
overflowing first column fails its rank test.  Its result is a
:class:`BlockStepResult` too, the step against an empty basis (``s`` is
0-by-p, no second pass), so the loop writes every block of ``r`` the same
way.  ``mgs`` keeps its own loop:
it projects each column against one basis column at a time, which is a
different algorithm, not a different step.  It runs right-looking, removing
each new basis column from all later columns at once; that applies the same
rounded operations in the same order as the left-looking loop, so the
factors are bitwise the same.  Both loops build their audit records with
:func:`_record`.  ``_project`` is not called here; it stays imported because
the benchmark's tracer (``perfbench/layers.py``) wraps these module bindings.

The defect ``|I - Q^T Q|`` is taken once, at the last block, as
:func:`orthogonality_defect` of the finished ``Q``: the paper bounds the
finished factor's loss of orthogonality, and the stability checks read only
the block and inverse norms.  It stays inside the driver call, so a timed
factorization includes it.  The defect after block k, if wanted, is
``orthogonality_defect(trace.q[:, :hi])``.

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
from .steps import _project, block_cgs2_step, block_cgs_step, cgs2_step


@dataclass(frozen=True)
class BlockRecord:
    """Audit data for one processed block.

    ``r2_inv_norm``, the inverse norm of the step's ``r2``, is None for the
    first block and for one-pass methods, which have no second pass.
    ``defect`` is the orthogonality defect of the finished ``Q``, on the
    last block only; it is None on every earlier one.
    """

    index: int
    t_prev: int
    width: int
    block_norm: float
    rkk_inv_norm: float
    r2_inv_norm: float | None
    defect: float | None


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


def _inverse_norm(r) -> float:
    """Spectral norm of the triangular ``r``'s inverse; width 1 takes no SVD."""
    if r.shape[1] == 1:
        return 1.0 / r[0, 0]
    return spectral_norm(upper_triangular_inverse(r))


def _record(index: int, t_prev: int, panel, res, q) -> BlockRecord:
    """Audit record of ``panel``, whose step result is ``res``.

    Width 1 takes no SVD: the column norm, and inverse norms by
    :func:`_inverse_norm`.  Only the last block takes the defect of ``q``.
    """
    width = panel.shape[1]
    last = t_prev + width == q.shape[1]
    return BlockRecord(
        index=index,
        t_prev=t_prev,
        width=width,
        block_norm=kernels.vec_norm(panel[:, 0]) if width == 1 else spectral_norm(panel),
        rkk_inv_norm=_inverse_norm(res.r),
        r2_inv_norm=None if res.r2 is None else _inverse_norm(res.r2),
        defect=orthogonality_defect(q) if last else None,
    )


def _gram_schmidt(a, blocks, step, unit: str) -> FactorizationTrace:
    """The block Gram-Schmidt loop shared by ``cgs``, ``cgs2``, ``bcgs``, ``bcgs2``.

    The first block is factored by :func:`local_qr`; every later block is
    absorbed by ``step(q[:, :lo], panel)``.  Either way the triangular
    factor grows by the bordered update ``r = [[r, s], [0, r_new]]``, with
    an empty ``s`` for the first block.  ``blocks`` None means one column
    per block.  Breakdowns are re-raised as ``"<unit> k: ..."``.
    """
    a = _validate_input(a)
    m, n = a.shape
    blocks = BlockPartition.ones(n) if blocks is None else _as_partition(blocks, n)

    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    records = []
    for k, (lo, hi) in enumerate(blocks.column_spans(), start=1):
        panel = a[:, lo:hi]
        try:
            res = local_qr(panel) if k == 1 else step(q[:, :lo], panel)
        except (RankDeficientError, GramSchmidtBreakdownError) as exc:
            raise _wrap_breakdown(exc, unit, k) from exc
        q[:, lo:hi] = res.q
        r[:lo, lo:hi] = res.s
        r[lo:hi, lo:hi] = res.r
        records.append(_record(k, lo, panel, res, q))
    return FactorizationTrace(QRFactorization(q, r), tuple(records))


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
    return _gram_schmidt(a, None, cgs2_step, "column")


def cgs(a) -> FactorizationTrace:
    """One-pass classical Gram-Schmidt baseline: ``bcgs`` with one column per block."""
    return _gram_schmidt(a, None, block_cgs_step, "column")


def mgs(a) -> FactorizationTrace:
    """One-pass modified Gram-Schmidt baseline, right-looking (row-oriented).

    Once column k is normalized, its projection is removed from all later
    columns at once: the row ``r[k-1, k:]`` is one :func:`kernels.dot` of
    ``q[:, k-1]`` with the trailing block, then a broadcast subtraction.
    Each later column still receives its projections one basis column at a
    time, in ascending order, and each dot product sums its rows in the same
    order, so the factors and records are bitwise those of the left-looking
    loop, which projects column k against every earlier basis column in turn.

    A column that vanishes raises :class:`RankDeficientError` naming it.
    """
    a = _validate_input(a)
    m, n = a.shape

    q = np.array(a, order="F", copy=True)
    r = np.zeros((n, n), order="F")
    # Subtract in column chunks of at most kernels._MATMUL_CHUNK entries, so
    # the products' temporary stays cache-sized, not m-by-n.
    width = max(1, kernels._MATMUL_CHUNK // m)
    records = []
    for k in range(1, n + 1):
        try:
            res = local_qr(q[:, k - 1 : k])
        except RankDeficientError as exc:
            raise _wrap_breakdown(exc, "column", k) from exc
        q[:, k - 1 : k] = res.q
        r[k - 1, k - 1] = res.r[0, 0]
        if k < n:
            r[k - 1, k:] = kernels.dot(q[:, k - 1], q[:, k:])
            for lo in range(k, n, width):
                q[:, lo : lo + width] -= q[:, k - 1 : k] * r[k - 1, lo : lo + width]
        records.append(_record(k, k - 1, a[:, k - 1 : k], res, q))
    return FactorizationTrace(QRFactorization(q, r), tuple(records))
