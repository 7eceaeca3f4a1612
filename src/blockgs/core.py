"""Dense-matrix substrate: storage conventions, products, norm diagnostics.

Matrices are plain 2-D float64 numpy arrays held in column-major (Fortran)
order, since every routine in the package consumes column panels.  The
helpers here enforce that convention at API boundaries and provide the
spectral-norm based diagnostics the stability statements are expressed in;
every spectral norm is the largest singular value from a full SVD.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SpectralNormError

#: Unit roundoff of IEEE binary64.
MACHINE_UNIT = 2.0**-53


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float64 column-major array.

    Column-major slices of existing matrices pass through without a copy.
    """
    out = np.asfortranarray(np.asarray(a, dtype=np.float64))
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {out.shape}")
    return out


def _require_finite(a: np.ndarray) -> None:
    """Raise :class:`SpectralNormError` naming the first nan or inf entry.

    Entries are searched in column-major order and named by 0-based
    ``[row, column]``; a finite matrix costs one ``isfinite`` pass.
    """
    if not np.isfinite(a).all():
        j, i = np.argwhere(~np.isfinite(a.T))[0]
        raise SpectralNormError(
            f"the input is not finite: entry [{i}, {j}] is {a[i, j]}"
        )


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


def spectral_norm(a) -> float:
    """Largest singular value of ``a``, from a full SVD.

    A nan or inf entry raises :class:`SpectralNormError` at once, as does an
    SVD that fails to converge.
    """
    a = as_matrix(a)
    _require_finite(a)
    try:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise SpectralNormError(f"SVD did not converge: {exc}") from exc


#: Columns per tile of the Gram matrix.  Narrow tiles have few entries, so
#: each product sums long chunks of its inner index; 8 was fastest on
#: 200x48 to 2000x128 panels.
_GRAM_TILE = 8


def _gram(q: np.ndarray) -> np.ndarray:
    """``kernels.matmul(q.T, q)``, bitwise, from its upper column tiles.

    Entry (i, j) sums ``q[k, i] * q[k, j]`` over ascending k, and the
    products commute exactly, so each tile above the diagonal is mirrored
    below it instead of being formed again.
    """
    n = q.shape[1]
    gram = np.empty((n, n), order="F")
    for lo in range(0, n, _GRAM_TILE):
        hi = min(lo + _GRAM_TILE, n)
        gram[:hi, lo:hi] = kernels.matmul(q[:, :hi].T, q[:, lo:hi])
        gram[lo:hi, :lo] = gram[:lo, lo:hi].T
    return gram


def orthogonality_defect(q) -> float:
    """Spectral-norm distance of q^T q from the identity, ``|I - Q^T Q|``.

    The Gram matrix is bitwise the fixed-order product
    ``kernels.matmul(q.T, q)``, so the value reproduces bitwise; the drivers
    call this once, on the finished ``Q``.
    """
    q = as_matrix(q)
    m, n = q.shape
    if m < n:
        raise ValueError(f"orthogonality defect needs rows >= cols, got {m}x{n}")
    gram = _gram(q)
    # I - G, not -(G - I): negation would flip the sign of exact zeros.
    d = np.asfortranarray(np.eye(n) - gram)
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
