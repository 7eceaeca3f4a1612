"""Executable growth functions and per-block stability checks.

These are the closed-form constants that scale machine roundoff in the
orthogonality and residual guarantees, plus the two runtime checks (on the
diagonal blocks of R and on the second-pass triangular factors) either of
which is enough to certify near-orthogonality of the accumulated basis.

All functions take the row count ``m``, the number of previously processed
columns ``t`` and the block width ``p``; ``t`` must be a multiple of ``p``
where a block count is implied.  For partitions with unequal widths the
checks are evaluated at ``p = max(widths)`` and ``t = (k - 1) * p``.

The bounds are the paper's for binary64: the unit roundoff is the constant
``MACHINE_UNIT`` (2^-53) and the panel-QR constant in ``l1`` is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import MACHINE_UNIT

if TYPE_CHECKING:  # pragma: no cover
    from .drivers import FactorizationTrace

_SQRT2 = math.sqrt(2.0)
_ALPHA = math.sqrt(7.0 + 4.0 * _SQRT2)


def alpha() -> float:
    """Induction constant sqrt(7 + 4 sqrt(2)) ~ 3.56."""
    return _ALPHA


def gamma_k(k: int) -> float:
    """Per-step contraction factor 1 / sqrt(alpha^2 (k - 1) + 1); strictly
    decreasing in the block index k, equal to 1 at k = 1."""
    if k < 1:
        raise ValueError(f"block index must be >= 1, got {k}")
    return 1.0 / math.sqrt(_ALPHA * _ALPHA * (k - 1) + 1.0)


def _check_domain(m: int, t: int, p: int) -> None:
    if p < 1:
        raise ValueError(f"block width must be >= 1, got {p}")
    if t < 0:
        raise ValueError(f"processed-column count must be >= 0, got {t}")
    if m < t + p:
        raise ValueError(f"need m >= t + p, got m={m}, t={t}, p={p}")


def l1(m: int, p: int) -> float:
    """Panel QR growth: m p^{3/2} (panel constant 1); for single columns, m + 4."""
    if p < 1 or m < p:
        raise ValueError(f"need m >= p >= 1, got m={m}, p={p}")
    if p == 1:
        return m + 4.0
    return m * p**1.5


def l2(m: int, t: int, p: int) -> float:
    """Projection-coefficient growth: m t^{1/2} p^{1/2}."""
    _check_domain(m, t, p)
    return m * math.sqrt(t) * math.sqrt(p)


def l3(t: int, p: int) -> float:
    """Projection-update growth: p^{1/2} (1 + t^{3/2})."""
    if p < 1 or t < 0:
        raise ValueError(f"need p >= 1 and t >= 0, got t={t}, p={p}")
    return math.sqrt(p) * (1.0 + t**1.5)


def l4(p: int) -> float:
    """Coefficient-recombination growth: p^{1/2} (1 + p^{3/2})."""
    if p < 1:
        raise ValueError(f"block width must be >= 1, got {p}")
    return math.sqrt(p) * (1.0 + p**1.5)


def l5(p: int) -> float:
    """Triangular-product growth: p^2."""
    if p < 1:
        raise ValueError(f"block width must be >= 1, got {p}")
    return float(p * p)


def lf(m: int, t: int, p: int) -> float:
    """One-step backward-error growth: l1 + l2 + l3."""
    _check_domain(m, t, p)
    return l1(m, p) + l2(m, t, p) + l3(t, p)


def _block_count(t: int, p: int) -> int:
    if t % p != 0:
        raise ValueError(f"t={t} is not a multiple of the block width p={p}")
    return t // p


def f1(m: int, t: int, p: int) -> float:
    """Orthogonality-defect growth after t = k p columns:
    sqrt(alpha^2 k + 1) * lf(m, t, p)."""
    _check_domain(m, t, p)
    k = _block_count(t, p)
    return math.sqrt(_ALPHA * _ALPHA * k + 1.0) * lf(m, t, p)


def gamma(m: int, t: int, p: int) -> float:
    """Ratio lf / f1; coincides with gamma_k(t / p + 1) and is < 1 for t >= p."""
    return lf(m, t, p) / f1(m, t, p)


def f_resid(m: int, t: int, p: int) -> float:
    """Single-step residual growth: 2 l1 + 2 l3 + l4 + l5."""
    _check_domain(m, t, p)
    return 2.0 * l1(m, p) + 2.0 * l3(t, p) + l4(p) + l5(p)


def f2(m: int, t: int, p: int) -> float:
    """Accumulated residual growth at block k = t / p + 1, the block being
    absorbed: k^{1/2} f_resid(m, t, p)."""
    _check_domain(m, t, p)
    k = _block_count(t, p) + 1
    return math.sqrt(k) * f_resid(m, t, p)


def f_sing(m: int, t: int, p: int) -> float:
    """Growth factor in the diagonal-block conditioning check:
    f1 + lf + gamma * l5."""
    return f1(m, t, p) + lf(m, t, p) + gamma(m, t, p) * l5(p)


def orthogonality_step_constant(m: int, t: int, p: int) -> float:
    """Frobenius bound for one induction step of the defect, at t = k p >= p.

    Always at most f1(m, t, p); the inequality is what lets the per-step
    defect estimate close on itself.
    """
    _check_domain(m, t, p)
    if t < p:
        raise ValueError(f"need at least one previous block, got t={t}, p={p}")
    prev = f1(m, t - p, p)
    cross = (1.0 + _SQRT2) * lf(m, t, p)
    corner = l1(m, p)
    return math.sqrt(prev * prev + 2.0 * cross * cross + corner * corner)


@dataclass(frozen=True)
class BoundContext:
    """The problem the bounds are evaluated for: ``m`` rows, ``n`` columns
    and block width ``p`` (the maximum width for unequal partitions).

    It names the last block, ``blocks = ceil(n / p)`` at
    ``t_last = (blocks - 1) * p``, and the constructor verifies that the
    defect bound stays meaningful (below 1) out to it.  The growth
    functions are the module functions, called with ``m`` and ``p``.
    """

    m: int
    p: int
    n: int

    def __post_init__(self):
        # l1 rejects p < 1 and m < p.
        if MACHINE_UNIT * l1(self.m, self.p) >= 1.0:
            raise ValueError(
                f"eps * l1({self.m}, {self.p}) >= 1: the panel contract is vacuous"
            )
        if not self.p <= self.n <= self.m:
            raise ValueError(f"need p <= n <= m, got n={self.n}")
        if MACHINE_UNIT * f1(self.m, self.t_last, self.p) >= 1.0:
            raise ValueError(
                f"eps * f1({self.m}, {self.t_last}, {self.p}) >= 1: the "
                "orthogonality bound is vacuous at this size"
            )

    @property
    def blocks(self) -> int:
        return -(-self.n // self.p)

    @property
    def t_last(self) -> int:
        return (self.blocks - 1) * self.p


@dataclass(frozen=True)
class AssumptionVerdict:
    """Outcome of the two per-block stability checks, with margins.

    Check A bounds eps * f_sing * |A_k| * |R_kk^{-1}|; check B bounds the
    inverse norm of the second-pass triangular factor.  Either one passing
    is enough for the orthogonality guarantee.
    """

    block_index: int
    check_a_lhs: float
    check_a_rhs: float
    check_a_passed: bool
    check_b_lhs: float
    check_b_rhs: float
    check_b_passed: bool

    @property
    def either_passed(self) -> bool:
        return self.check_a_passed or self.check_b_passed


def check_assumptions(trace: "FactorizationTrace", ctx: BoundContext) -> list[AssumptionVerdict]:
    """Evaluate both stability checks for every block after the first.

    The trace must carry the reorthogonalization audit quantities (inverse
    norms of the second-pass triangular factors), i.e. come from a two-pass
    method.  A singular diagonal block shows up as an infinite check-A
    left-hand side, not an exception.
    """
    verdicts = []
    for rec in trace.per_block[1:]:
        k = rec.index
        if rec.r2_inv_norm is None:
            raise ValueError(
                f"block {k} lacks the second-pass audit quantities; "
                "assumption checks need a reorthogonalized trace"
            )
        t_eval = (k - 1) * ctx.p
        g = gamma_k(k)
        lhs_a = MACHINE_UNIT * f_sing(ctx.m, t_eval, ctx.p) * rec.block_norm * rec.rkk_inv_norm
        lhs_b = rec.r2_inv_norm
        rhs_b = math.sqrt(1.0 + g * g)
        verdicts.append(
            AssumptionVerdict(
                block_index=k,
                check_a_lhs=lhs_a,
                check_a_rhs=g,
                check_a_passed=bool(lhs_a <= g),
                check_b_lhs=lhs_b,
                check_b_rhs=rhs_b,
                check_b_passed=bool(lhs_b <= rhs_b),
            )
        )
    return verdicts
