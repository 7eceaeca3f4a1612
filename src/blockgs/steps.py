"""Single orthogonalization steps: scalar two-pass, block one-pass, block two-pass.

Each step takes a near left-orthogonal basis ``u`` and new column(s) ``b``
and returns a :class:`BlockStepResult`: the orthonormalized panel together
with the coefficients that express ``b`` in terms of the enlarged basis, so
that ``b = u @ s + q @ r`` up to roundoff.  The drivers' one block loop takes
any of them: ``bcgs2`` uses :func:`block_cgs2_step`, ``bcgs`` and ``cgs`` use
:func:`block_cgs_step`, and ``cgs2`` uses :func:`cgs2_step`, whose result is
the width-1 case of :func:`block_cgs2_step`'s.  The scalar step and the
width-1 block step are separate code but execute the same floating-point
operations, so the two agree bitwise by computation, not by sharing code.
:func:`local_qr`, which factors the first block, returns the same type with
an empty basis: ``s`` is 0-by-p and the two-pass fields are None.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .core import as_matrix, spectral_norm, upper_triangular_inverse
from .errors import GramSchmidtBreakdownError
from .localqr import BlockStepResult, local_qr


def _validate_pair(u, b):
    u = as_matrix(u)
    b = as_matrix(b)
    if u.shape[0] != b.shape[0]:
        raise ValueError(f"row mismatch: basis is {u.shape}, new columns are {b.shape}")
    if u.shape[1] + b.shape[1] > u.shape[0]:
        raise ValueError(
            f"cannot orthogonalize {b.shape[1]} new columns against {u.shape[1]} "
            f"existing ones in dimension {u.shape[0]}"
        )
    return u, b


def _project(u, b):
    """One classical Gram-Schmidt projection: coefficients and remainder."""
    s = kernels.matmul(u.T, b)
    y = b - kernels.matmul(u, s)
    return s, y


def cgs2_step(u, b) -> BlockStepResult:
    """Orthogonalize one column against ``u``, twice.

    ``u`` is m-by-t with orthonormal-to-roundoff columns (the caller's
    responsibility), ``b`` a single column.  Two projection passes are always
    performed.  The result is the width-1 block step's: ``r = [[r2 * r1]]``,
    ``s = s1 + s2 * r1``, the pass norms as 1-by-1 ``r1`` and ``r2``, and
    ``r2_inv_norm = 1 / r2``.  Raises GramSchmidtBreakdownError when either
    pass leaves an exactly zero remainder, i.e. ``b`` lies in the span of
    ``u`` to working precision.
    """
    u, b = _validate_pair(u, b)
    if b.shape[1] != 1:
        raise ValueError(f"expected a single column, got {b.shape[1]}")

    s1, y1 = _project(u, b)
    r1 = kernels.vec_norm(y1[:, 0])
    if r1 == 0.0:
        raise GramSchmidtBreakdownError(
            "first normalization failed: the column lies in the span of the basis"
        )
    q1 = y1 / r1
    s2, y2 = _project(u, q1)
    r2 = kernels.vec_norm(y2[:, 0])
    if r2 == 0.0:
        raise GramSchmidtBreakdownError(
            "second normalization failed: the reorthogonalized column vanished"
        )
    return BlockStepResult(
        q=y2 / r2,
        r=np.asfortranarray([[r2 * r1]]),
        s=s1 + s2 * r1,
        r1=np.asfortranarray([[r1]]),
        r2=np.asfortranarray([[r2]]),
        r2_inv_norm=1.0 / r2,
    )


def block_cgs_step(u, b) -> BlockStepResult:
    """One-pass block step: project ``b`` off ``u`` and refactor the remainder.

    Rank errors from the panel factorization propagate; they mean some column
    of ``b`` is essentially inside the range of ``u``.
    """
    u, b = _validate_pair(u, b)
    s, y = _project(u, b)
    res = local_qr(y)
    return BlockStepResult(q=res.q, r=res.r, s=s)


def block_cgs2_step(u, b) -> BlockStepResult:
    """Two chained one-pass block steps; the second pass repairs the first.

    Returns the reorthogonalized panel with the recombined coefficients
    ``s = s1 + s2 @ r1`` and ``r = r2 @ r1``, plus the audit quantities the
    stability checks need (both inner triangular factors and the spectral
    norm of the second one's inverse).
    """
    first = block_cgs_step(u, b)
    second = block_cgs_step(u, first.q)
    s_b = first.s + kernels.matmul(second.s, first.r)
    r_b = kernels.matmul(second.r, first.r)
    r2_inv_norm = spectral_norm(upper_triangular_inverse(second.r))
    return BlockStepResult(
        q=second.q,
        r=r_b,
        s=s_b,
        r1=first.r,
        r2=second.r,
        r2_inv_norm=r2_inv_norm,
    )
