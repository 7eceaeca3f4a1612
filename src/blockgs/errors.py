"""Exception types shared across the package."""

from __future__ import annotations


class BlockGsError(Exception):
    """Base class for all library-specific failures."""


class RankDeficientError(BlockGsError):
    """A panel failed the numerical full-column-rank test.

    Carries the offending diagonal position and its magnitude so callers can
    report exactly which column collapsed.
    """

    def __init__(self, message: str, index: int, magnitude: float):
        super().__init__(message)
        self.index = index
        self.magnitude = magnitude


class GramSchmidtBreakdownError(BlockGsError):
    """A normalization inside a Gram-Schmidt step produced a zero vector."""


class SpectralNormError(BlockGsError):
    """A spectral norm could not be taken.

    Raised when the input has a nan or inf entry, or when the SVD did not
    converge.
    """


class AssumptionFailureError(BlockGsError):
    """A per-block stability check failed under the strict policy."""

    def __init__(self, message: str, block_index: int):
        super().__init__(message)
        self.block_index = block_index
