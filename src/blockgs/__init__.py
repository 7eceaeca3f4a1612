"""Block classical Gram-Schmidt QR with reorthogonalization.

Dense QR factorization that processes column panels with two projection
passes per panel, plus executable versions of the growth functions that
bound its orthogonality defect and residual, runtime stability checks, and
an experiment harness for condition-number sweeps.
"""

from .bounds import (
    AssumptionVerdict,
    BoundContext,
    alpha,
    check_assumptions,
    f1,
    f2,
    f_resid,
    f_sing,
    gamma,
    gamma_k,
    l1,
    l2,
    l3,
    l4,
    l5,
    lf,
    orthogonality_step_constant,
)
from .core import (
    MACHINE_UNIT,
    BlockPartition,
    QRFactorization,
    as_matrix,
    matmul,
    orthogonality_defect,
    relative_residual,
    spectral_norm,
    upper_triangular_inverse,
)
from .drivers import BlockRecord, FactorizationTrace, bcgs, bcgs2, cgs, cgs2, mgs
from .errors import (
    AssumptionFailureError,
    BlockGsError,
    GramSchmidtBreakdownError,
    RankDeficientError,
    SpectralNormError,
)
from .generators import gen_hilbert_like, gen_lauchli, gen_svd_spectrum
from .harness import (
    ExperimentConfig,
    ReportRow,
    emit_csv,
    emit_plotdata,
    parse_csv,
    run,
    verify_report_contracts,
)
from .kernels import backend
from .localqr import LocalQrResult, local_qr
from .mmio import read_matrix_market, write_matrix_market
from .steps import BlockStepResult, block_cgs2_step, block_cgs_step, cgs2_step

__version__ = "0.1.0"

__all__ = [
    "AssumptionFailureError",
    "AssumptionVerdict",
    "BlockGsError",
    "BlockPartition",
    "BlockRecord",
    "BlockStepResult",
    "BoundContext",
    "ExperimentConfig",
    "FactorizationTrace",
    "GramSchmidtBreakdownError",
    "LocalQrResult",
    "MACHINE_UNIT",
    "QRFactorization",
    "RankDeficientError",
    "ReportRow",
    "SpectralNormError",
    "alpha",
    "as_matrix",
    "backend",
    "bcgs",
    "bcgs2",
    "cgs",
    "cgs2",
    "check_assumptions",
    "emit_csv",
    "emit_plotdata",
    "f1",
    "f2",
    "f_resid",
    "f_sing",
    "gamma",
    "gamma_k",
    "gen_hilbert_like",
    "gen_lauchli",
    "gen_svd_spectrum",
    "l1",
    "l2",
    "l3",
    "l4",
    "l5",
    "lf",
    "local_qr",
    "matmul",
    "mgs",
    "orthogonality_defect",
    "orthogonality_step_constant",
    "parse_csv",
    "read_matrix_market",
    "relative_residual",
    "run",
    "spectral_norm",
    "upper_triangular_inverse",
    "verify_report_contracts",
    "block_cgs2_step",
    "block_cgs_step",
    "cgs2_step",
    "write_matrix_market",
]
