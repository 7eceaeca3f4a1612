"""Dense-matrix substrate: storage conventions, products, norm diagnostics.

Matrices are plain 2-D float64 numpy arrays held in column-major (Fortran)
order, since every routine in the package consumes column panels.  The
helpers here enforce that convention at API boundaries and provide the
spectral-norm based diagnostics the stability statements are expressed in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SpectralNormError

#: Unit roundoff of IEEE binary64.
MACHINE_UNIT = 2.0**-53

#: Matrices with min(m, n) above this use power iteration instead of a full
#: SVD for the spectral norm.
POWER_ITERATION_THRESHOLD = 512

_POWER_TOL = 1e-10
_POWER_MAXITER = 10_000


def as_matrix(a, *, require_finite: bool = False) -> np.ndarray:
    """Coerce input to a 2-D float64 column-major array.

    Column-major slices of existing matrices pass through without a copy.
    """
    out = np.asfortranarray(np.asarray(a, dtype=np.float64))
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {out.shape}")
    if require_finite and not np.isfinite(out).all():
        raise ValueError("matrix contains non-finite entries")
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed, run-to-run deterministic summation order.

    Accumulation is in binary64, column by column, with the inner index
    ascending, so two calls on identical inputs are bitwise identical.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: left operand is {a.shape[0]}x{a.shape[1]}, "
            f"right operand is {b.shape[0]}x{b.shape[1]}"
        )
    return kernels.matmul(a, b)


def _power_iteration_norm(a: np.ndarray) -> float:
    """Largest singular value via power iteration on a^T a.

    Deterministic: starts from the constant unit vector.  Relative tolerance
    1e-10, at most 10_000 iterations.  Stops at the first non-finite iterate,
    which a non-finite input produces at once.
    """
    n = a.shape[1]
    v = np.full((n, 1), 1.0 / math.sqrt(n), order="F")
    estimate = 0.0
    for _ in range(_POWER_MAXITER):
        z = kernels.matmul(a.T, kernels.matmul(a, v))
        zn = kernels.vec_norm(z[:, 0])
        if not math.isfinite(zn):
            raise SpectralNormError(
                "power iteration reached a non-finite iterate: the input is not "
                "finite (or too large to square)"
            )
        if zn == 0.0:
            return 0.0
        new_estimate = math.sqrt(zn)
        if abs(new_estimate - estimate) <= _POWER_TOL * new_estimate:
            return new_estimate
        estimate = new_estimate
        v = z / zn
    raise SpectralNormError(
        f"power iteration did not reach relative tolerance {_POWER_TOL:g} "
        f"within {_POWER_MAXITER} iterations"
    )


def spectral_norm(a) -> float:
    """Largest singular value of ``a``.

    Uses a full SVD at desk scale; for matrices with min(m, n) > 512 it
    switches to power iteration on a^T a so diagnostics stay cheap.  If the
    SVD fails to converge the power-iteration fallback is attempted before
    giving up.  A nan or inf entry raises :class:`SpectralNormError` at once.
    """
    a = as_matrix(a)
    if not np.isfinite(a).all():
        raise SpectralNormError("the input is not finite: it has a nan or inf entry")
    if min(a.shape) > POWER_ITERATION_THRESHOLD:
        return _power_iteration_norm(a)
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError:
        try:
            return _power_iteration_norm(a)
        except SpectralNormError as exc:
            raise SpectralNormError(
                "SVD did not converge and the power-iteration fallback "
                f"(tol={_POWER_TOL:g}, maxiter={_POWER_MAXITER}) also failed: {exc}"
            ) from exc


def orthogonality_defect(q, gram=None, known: int = 0) -> float:
    """Spectral-norm distance of q^T q from the identity.

    For an m-by-n ``q`` the Gram matrix is built in ``gram``, an n-by-n (or
    larger) work array, which the call allocates when none is given.  When
    its leading ``known``-by-``known`` block already holds the Gram matrix of
    ``q[:, :known]``, only the border ``q^T q[:, known:]`` is computed and
    written into columns ``known:n``, and its top rows are mirrored into rows
    ``known:n``.  Each entry is the same ascending-row sum as in the full
    product (IEEE products commute), so a driver that passes one work array
    and the previous block's column count gets its running defect bitwise
    equal to the full recomputation at O(m n) work per new column.
    """
    q = as_matrix(q)
    m, n = q.shape
    if m < n:
        raise ValueError(f"orthogonality defect needs rows >= cols, got {m}x{n}")
    if not 0 <= known < n:
        raise ValueError(f"known columns must be in [0, {n}), got {known}")
    if gram is None:
        if known:
            raise ValueError("known columns need the gram array that holds them")
        gram = np.empty((n, n), order="F")
    elif gram.shape[0] < n or gram.shape[1] < n:
        raise ValueError(f"gram array {gram.shape} is smaller than {n}x{n}")
    gram[:n, known:n] = kernels.matmul(q.T, q[:, known:])
    gram[known:n, :known] = gram[:known, known:n].T
    # I - G, not -(G - I): negation would flip the sign of exact zeros.
    d = np.asfortranarray(np.eye(n) - gram[:n, :n])
    return spectral_norm(d)


def upper_triangular_inverse(r) -> np.ndarray:
    """Inverse of an upper-triangular matrix by back substitution.

    O(p^3); intended for the small diagonal blocks of R.  A zero diagonal
    yields infinities rather than an exception.
    """
    r = as_matrix(r)
    p = r.shape[0]
    if r.shape[1] != p:
        raise ValueError(f"triangular inverse needs a square matrix, got {r.shape}")
    x = np.zeros((p, p), order="F")
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(p):
            x[j, j] = 1.0 / r[j, j]
            for i in range(j - 1, -1, -1):
                s = r[i, i + 1] * x[i + 1, j]
                for k in range(i + 2, j + 1):
                    s += r[i, k] * x[k, j]
                x[i, j] = -s / r[i, i]
    return x


def relative_residual(a, factorization: "QRFactorization") -> float:
    """Spectral-norm residual of a factorization, relative to ``a``.

    Returns ``|a - q r| / |a|``; an all-zero ``a`` gets 0.0 by convention
    (flagged with a warning).
    """
    a = as_matrix(a)
    q = factorization.q
    r = factorization.r
    if q.shape[0] != a.shape[0] or r.shape[1] != a.shape[1]:
        raise ValueError(
            f"factorization shapes {q.shape} x {r.shape} do not conform to {a.shape}"
        )
    denom = spectral_norm(a)
    if denom == 0.0:
        warnings.warn("relative residual of an all-zero matrix reported as 0.0")
        return 0.0
    return spectral_norm(a - kernels.matmul(q, r)) / denom


@dataclass(frozen=True)
class BlockPartition:
    """Ordered widths of the column panels a matrix is split into."""

    widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 1:
            raise ValueError("a partition needs at least one block")
        if any(w < 1 for w in widths):
            raise ValueError(f"all block widths must be >= 1, got {widths}")

    @classmethod
    def uniform(cls, n: int, width: int) -> "BlockPartition":
        """Blocks of ``width`` columns; the last block may be smaller."""
        if n < 1 or width < 1:
            raise ValueError(f"need n >= 1 and width >= 1, got n={n}, width={width}")
        full, rest = divmod(n, width)
        widths = [width] * full + ([rest] if rest else [])
        if not widths:
            widths = [n]
        return cls(tuple(widths))

    @classmethod
    def ones(cls, n: int) -> "BlockPartition":
        """The all-ones partition: one column per block."""
        return cls.uniform(n, 1)

    @classmethod
    def single(cls, n: int) -> "BlockPartition":
        """One block holding every column."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return cls((n,))

    @property
    def count(self) -> int:
        return len(self.widths)

    @property
    def total(self) -> int:
        return sum(self.widths)

    @property
    def max_width(self) -> int:
        return max(self.widths)

    def column_spans(self):
        """Yield (start, stop) column indices for each block."""
        start = 0
        for w in self.widths:
            yield start, start + w
            start += w

    def validate_total(self, ncols: int) -> None:
        if self.total != ncols:
            raise ValueError(
                f"partition widths sum to {self.total}, but the matrix has {ncols} columns"
            )


@dataclass(frozen=True)
class QRFactorization:
    """Left-orthogonal q paired with the upper-triangular r it reproduces."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.q)
        r = as_matrix(self.r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        if r.shape[0] != r.shape[1]:
            raise ValueError(f"r must be square, got {r.shape}")
        if q.shape[1] != r.shape[0]:
            raise ValueError(
                f"q has {q.shape[1]} columns but r is {r.shape[0]}x{r.shape[1]}"
            )
        if np.any(np.tril(r, -1) != 0.0):
            raise ValueError("r has nonzero entries below the diagonal")

    @property
    def shape(self) -> tuple[int, int]:
        return self.q.shape[0], self.r.shape[1]
