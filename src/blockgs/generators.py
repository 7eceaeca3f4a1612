"""Test-matrix generators with prescribed conditioning.

Randomness comes from numpy's seeded PCG64 generator, so identical seeds
give bitwise-identical matrices on a given platform.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .core import as_matrix


def gen_svd_spectrum(m: int, n: int, kappa: float, seed: int) -> np.ndarray:
    """Random m-by-n matrix with a geometric singular spectrum from 1 to 1/kappa.

    Built as u @ diag(sigma) @ v.T with u, v orthonormal factors of seeded
    Gaussian matrices, so the measured condition number lands within a factor
    of two of the target.
    """
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got m={m}, n={n}")
    if not kappa >= 1.0:
        raise ValueError(f"condition target must be >= 1, got {kappa}")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if n == 1:
        sigma = np.ones(1)
    else:
        sigma = kappa ** (-np.arange(n) / (n - 1.0))
    a = kernels.matmul(np.asfortranarray(u * sigma), v.T)
    return as_matrix(a, require_finite=True)


def gen_lauchli(n: int, eps_val: float) -> np.ndarray:
    """(n+1)-by-n stress matrix: a row of ones over eps_val times the identity.

    The classic input on which one-pass classical Gram-Schmidt visibly loses
    orthogonality.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (eps_val > 0.0 and math.isfinite(eps_val)):
        raise ValueError(f"need a finite eps_val > 0, got {eps_val}")
    a = np.zeros((n + 1, n), order="F")
    a[0, :] = 1.0
    a[1:, :] = eps_val * np.eye(n)
    return as_matrix(a, require_finite=True)


def gen_hilbert_like(m: int, n: int) -> np.ndarray:
    """m-by-n section of the Hilbert matrix, entries 1 / (i + j - 1)."""
    if m < 1 or n < 1:
        raise ValueError(f"need positive dimensions, got m={m}, n={n}")
    i = np.arange(1, m + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    return as_matrix(1.0 / (i + j - 1.0), require_finite=True)
