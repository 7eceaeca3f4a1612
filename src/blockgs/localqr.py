"""Panel QR kernel: Householder thin QR with a single-column normalization path.

``local_qr`` is the factorization primitive every block step is built on.
Its contract: the returned q is near left-orthogonal and q @ r reproduces the
panel, both to machine precision scaled by the growth function ``l1_bound``.
The returned r always has a nonnegative diagonal, which makes the width-1
path coincide bitwise with direct normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bounds import l1
from .core import MACHINE_UNIT, as_matrix, spectral_norm
from .errors import RankDeficientError, SpectralNormError


@dataclass(frozen=True)
class LocalQrResult:
    """Orthonormal panel factor and its upper-triangular coefficient block."""

    q: np.ndarray
    r: np.ndarray


def l1_bound(m: int, p: int, d1: float = 1.0) -> float:
    """Growth function of the panel QR contract; see :func:`blockgs.bounds.l1`."""
    return l1(m, p, d1)


def local_qr(b) -> LocalQrResult:
    """Factor an m-by-p panel (m >= p >= 1) into q (m-by-p) and r (p-by-p).

    Width-1 panels bypass Householder entirely: r is the column norm and q
    the normalized column.  Wider panels use Householder reflectors with the
    explicit q formed by applying them to the leading columns of the
    identity; signs are flipped so the diagonal of r is nonnegative.

    Raises
    ------
    RankDeficientError
        If any diagonal of r is at most m * eps * |b|, i.e. the panel is not
        numerically of full column rank.
    SpectralNormError
        If the panel has a nan or inf entry.
    ValueError
        If the panel is wider than tall, or so large that the roundoff bound
        eps * l1_bound(m, p) reaches 1 and the contract is meaningless.
    """
    b = as_matrix(b)
    m, p = b.shape
    if m < p:
        raise ValueError(f"panel must be at least as tall as wide, got {m}x{p}")
    if MACHINE_UNIT * l1_bound(m, p) >= 1.0:
        raise ValueError(
            f"panel size {m}x{p} too large: eps * l1_bound = "
            f"{MACHINE_UNIT * l1_bound(m, p):g} >= 1"
        )

    if p == 1:
        r_scalar = kernels.vec_norm(b[:, 0])
        # A norm that overflows on finite entries is left to the rank test.
        if not math.isfinite(r_scalar) and not np.isfinite(b).all():
            raise SpectralNormError(
                "the input is not finite: it has a nan or inf entry "
                f"(column norm {r_scalar:g})"
            )
        if not r_scalar > m * MACHINE_UNIT * r_scalar:
            raise RankDeficientError(
                f"column norm {r_scalar:g} fails the rank test",
                index=0,
                magnitude=r_scalar,
            )
        q = b / r_scalar
        r = np.asfortranarray([[r_scalar]])
        return LocalQrResult(q=q, r=r)

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
    return LocalQrResult(q=q, r=r)
