"""Panel QR kernel: Householder thin QR with a single-column normalization path.

``local_qr`` is the factorization primitive every block step is built on.
Its contract: the returned q is near left-orthogonal and q @ r reproduces the
panel, both to machine precision scaled by the growth function ``bounds.l1``.
The returned r always has a nonnegative diagonal, which makes the width-1
path coincide bitwise with direct normalization.  It returns the block
steps' :class:`BlockStepResult`, as the step against an empty basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .bounds import l1
from .core import MACHINE_UNIT, _require_finite, as_matrix, spectral_norm
from .errors import RankDeficientError


@dataclass(frozen=True)
class BlockStepResult:
    """Orthonormalized panel q, triangular coefficient block r, basis
    coefficients s, so that ``b = u @ s + q @ r`` up to roundoff.

    Two-pass steps also return ``r2``, the second pass's triangular factor,
    whose inverse norm the drivers' audit takes for stability check B.
    :func:`local_qr`'s result has an empty basis: ``s`` is 0-by-p and ``r2``
    is None, as it is for the one-pass steps.
    """

    q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    r2: np.ndarray | None = None


def local_qr(b) -> BlockStepResult:
    """Factor an m-by-p panel (m >= p >= 1) into q (m-by-p) and r (p-by-p).

    Width-1 panels bypass Householder entirely: r is the column norm and q
    the normalized column.  Wider panels use Householder reflectors with the
    explicit q formed by applying them to the leading columns of the
    identity; signs are flipped so the diagonal of r is nonnegative.  The
    result's ``s`` is 0-by-p and its ``r2`` is None.

    Raises
    ------
    RankDeficientError
        If any diagonal of r is at most m * eps * |b|, i.e. the panel is not
        numerically of full column rank.
    SpectralNormError
        If the panel has a nan or inf entry; checked before any arithmetic.
    ValueError
        If the panel is wider than tall, or so large that the roundoff bound
        eps * l1(m, p) reaches 1 and the contract is meaningless.
    """
    b = as_matrix(b)
    m, p = b.shape
    if m < p:
        raise ValueError(f"panel must be at least as tall as wide, got {m}x{p}")
    if MACHINE_UNIT * l1(m, p) >= 1.0:
        raise ValueError(
            f"panel size {m}x{p} too large: eps * l1 = {MACHINE_UNIT * l1(m, p):g} >= 1"
        )
    _require_finite(b)

    if p == 1:
        r_scalar = kernels.vec_norm(b[:, 0])
        # A norm that overflows on finite entries fails the rank test.
        if not r_scalar > m * MACHINE_UNIT * r_scalar:
            raise RankDeficientError(
                f"column norm {r_scalar:g} fails the rank test",
                index=0,
                magnitude=r_scalar,
            )
        q = b / r_scalar
        r = np.asfortranarray([[r_scalar]])
        return BlockStepResult(q=q, r=r, s=np.zeros((0, p), order="F"))

    q, r = kernels.householder_qr(b)
    diag = np.diagonal(r).copy()
    negative = diag < 0.0
    if negative.any():
        q[:, negative] = -q[:, negative]
        r[negative, :] = -r[negative, :]
        diag = np.diagonal(r).copy()

    threshold = m * MACHINE_UNIT * spectral_norm(b)
    worst = int(np.argmin(diag))
    if not diag[worst] > threshold:
        raise RankDeficientError(
            f"panel is numerically rank deficient: diagonal {worst} of r is "
            f"{diag[worst]:g}, at or below the threshold {threshold:g}",
            index=worst,
            magnitude=float(diag[worst]),
        )
    return BlockStepResult(q=q, r=r, s=np.zeros((0, p), order="F"))
