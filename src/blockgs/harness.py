"""Experiment engine: configured trials, stability-check policy, CSV/plot output.

A trial factors one matrix with the requested method, measures the
orthogonality defect and relative residual, and (for the two-pass methods)
evaluates the per-block stability checks.  Under the ``strict`` policy a
failed check aborts the run; under ``warn`` the row records the failure and
the sweep continues.  ``svd`` draws trial i's matrix with seed ``seed + i``;
``lauchli``, ``hilbert`` and ``file`` build one read-only matrix per run, and
every trial factors it.

Every method has a column partition, :meth:`ExperimentConfig.partition`:
the given one for ``bcgs``/``bcgs2``, one column per block for ``cgs``,
``mgs`` and ``cgs2``, and a single block for ``householder``.  Its widest
block is the row's ``p``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .bounds import BoundContext, check_assumptions, f1, f2
from .core import (
    MACHINE_UNIT,
    BlockPartition,
    QRFactorization,
    orthogonality_defect,
    relative_residual,
)
from .drivers import bcgs, bcgs2, cgs, cgs2, mgs
from .errors import AssumptionFailureError
from .generators import gen_hilbert_like, gen_lauchli, gen_svd_spectrum
from .localqr import local_qr
from .mmio import read_matrix_market

METHODS = ("cgs", "mgs", "cgs2", "bcgs", "bcgs2", "householder")
GENERATORS = ("svd", "lauchli", "hilbert", "file")
POLICIES = ("strict", "warn")

_DRIVERS = {"cgs": cgs, "mgs": mgs, "cgs2": cgs2, "bcgs": bcgs, "bcgs2": bcgs2}
_BLOCK_METHODS = {"bcgs", "bcgs2"}
_CHECKED_METHODS = {"cgs2", "bcgs2"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: method, problem sizes, generator, policy, trial count.

    ``blocks`` is the partition that ``bcgs``/``bcgs2`` need and others refuse.
    """

    method: str
    m: int
    n: int
    blocks: BlockPartition | None = None
    generator: str = "svd"
    kappa: float = 1.0
    seed: int = 0
    policy: str = "warn"
    trials: int = 1
    input_path: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.generator not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; choose from {GENERATORS}"
            )
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need 1 <= n <= m, got m={self.m}, n={self.n}")
        if not self.kappa >= 1.0:  # also rejects nan
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.generator == "lauchli" and math.isinf(self.kappa):
            raise ValueError(
                "the lauchli generator needs a finite kappa (its perturbation "
                "is 1/kappa), got inf"
            )
        if self.generator == "lauchli" and self.m != self.n + 1:
            raise ValueError("the lauchli generator builds an (n+1) x n matrix, so it "
                             f"needs m = n + 1 = {self.n + 1}, got m={self.m}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.blocks is not None and not isinstance(self.blocks, BlockPartition):
            raise TypeError(
                "blocks must be a BlockPartition or None, got "
                f"{type(self.blocks).__name__} {self.blocks!r}"
            )
        if self.method in _BLOCK_METHODS and self.blocks is None:
            raise ValueError(f"method {self.method!r} needs --block or --blocks")
        if self.method not in _BLOCK_METHODS and self.blocks is not None:
            raise ValueError(f"method {self.method!r} does not take a block width")
        if self.generator == "file" and self.input_path is None:
            raise ValueError("the file generator needs an input path")
        part = self.partition()
        if self.method in _CHECKED_METHODS:
            # The stability checks evaluate block k at t = (k - 1) * p, p the
            # widest block, and the growth functions need m >= t + p there.
            need = part.count * part.max_width
            if need > self.m:
                raise ValueError(
                    f"the stability checks of {self.method} on partition "
                    f"{part.widths} ({part.count} blocks, widest {part.max_width}) "
                    f"need m >= {part.count} * {part.max_width} = {need}, "
                    f"got m={self.m}"
                )

    def partition(self) -> BlockPartition:
        """The method's column partition; its widths sum to ``n``."""
        if self.blocks is not None:
            self.blocks.validate_total(self.n)
            return self.blocks
        if self.method == "householder":
            return BlockPartition.single(self.n)
        return BlockPartition.ones(self.n)


@dataclass(frozen=True)
class ReportRow:
    """One trial's measurements."""

    method: str
    m: int
    n: int
    p: int
    kappa_measured: float
    defect: float
    rel_residual: float
    assumptions_passed: bool
    wall_time_seconds: float


def _inputs(config: ExperimentConfig):
    """Each trial's matrix, in trial order."""
    if config.generator == "svd":
        return (gen_svd_spectrum(config.m, config.n, config.kappa, config.seed + i)
                for i in range(config.trials))
    if config.generator == "lauchli":
        # kappa maps to the perturbation size: eps_val = 1 / kappa.
        a = gen_lauchli(config.n, 1.0 / config.kappa)
    elif config.generator == "hilbert":
        a = gen_hilbert_like(config.m, config.n)
    else:
        a = read_matrix_market(config.input_path)
        # The partition, and so the row's p, was built for config.n columns.
        if a.shape != (config.m, config.n):
            raise ValueError(
                f"{config.input_path}: the matrix is {a.shape[0]}x{a.shape[1]}, "
                f"but the configuration has m={config.m}, n={config.n}"
            )
    # Every trial shares this one array, so no trial may change it.
    a.setflags(write=False)
    return [a] * config.trials


def _measured_kappa(a: np.ndarray) -> float:
    sv = np.linalg.svd(a, compute_uv=False)
    smallest = sv[min(a.shape) - 1]
    if smallest == 0.0:
        return math.inf
    return float(sv[0] / smallest)


def _run_trial(config: ExperimentConfig, index: int, a: np.ndarray) -> ReportRow:
    m, n = config.m, config.n
    part = config.partition()
    p = part.max_width

    start = time.perf_counter()
    if config.method == "householder":
        res = local_qr(a)
        factorization = QRFactorization(res.q, res.r)
        trace = None
    else:
        driver = _DRIVERS[config.method]
        trace = driver(a, part) if config.method in _BLOCK_METHODS else driver(a)
        factorization = trace.factorization
    wall = time.perf_counter() - start

    defect = orthogonality_defect(factorization.q) if trace is None else trace.per_block[-1].defect
    resid = relative_residual(a, factorization)

    assumptions_passed = True
    if config.method in _CHECKED_METHODS:
        ctx = BoundContext(m=m, p=p, n=n)
        verdicts = check_assumptions(trace, ctx)
        failing = [v for v in verdicts if not v.either_passed]
        assumptions_passed = not failing
        if failing and config.policy == "strict":
            worst = failing[0]
            raise AssumptionFailureError(
                f"trial {index}: stability checks failed at block {worst.block_index}: "
                f"check A {worst.check_a_lhs:.3e} > {worst.check_a_rhs:.3e}, "
                f"check B {worst.check_b_lhs:.3e} > {worst.check_b_rhs:.3e}",
                block_index=worst.block_index,
            )

    return ReportRow(
        method=config.method,
        m=m,
        n=n,
        p=p,
        kappa_measured=_measured_kappa(a),
        defect=defect,
        rel_residual=resid,
        assumptions_passed=assumptions_passed,
        wall_time_seconds=wall,
    )


def run(config: ExperimentConfig) -> list[ReportRow]:
    """Run every trial of a configuration, in trial order."""
    return [_run_trial(config, i, a) for i, a in enumerate(_inputs(config))]


def verify_report_contracts(rows: list[ReportRow]) -> None:
    """Assert the measured defect and residual against their bounds.

    Applies to two-pass rows whose stability checks all passed; the bounds
    carry the safety factor 10 used throughout the test suite.
    """
    for row in rows:
        if row.method not in _CHECKED_METHODS or not row.assumptions_passed:
            continue
        ctx = BoundContext(m=row.m, p=row.p, n=row.n)
        defect_bound = 10.0 * MACHINE_UNIT * f1(ctx.m, ctx.t_last, ctx.p)
        resid_bound = 10.0 * MACHINE_UNIT * f2(ctx.m, ctx.t_last, ctx.p)
        if not row.defect <= defect_bound:
            raise AssertionError(
                f"defect {row.defect:.3e} exceeds bound {defect_bound:.3e} "
                f"for {row.method} m={row.m} n={row.n} p={row.p}"
            )
        if not row.rel_residual <= resid_bound:
            raise AssertionError(
                f"residual {row.rel_residual:.3e} exceeds bound {resid_bound:.3e} "
                f"for {row.method} m={row.m} n={row.n} p={row.p}"
            )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# One formatter and one parser per ReportRow field type; with postponed
# annotations the field types are their names.
_FORMATTERS = {"str": str, "int": str, "float": _fmt, "bool": lambda v: "true" if v else "false"}
_PARSERS = {"str": str, "int": int, "float": float, "bool": lambda text: text == "true"}
_CSV_FIELDS = tuple((f.name, f.type) for f in fields(ReportRow))
_CSV_HEADER = ",".join(name for name, _ in _CSV_FIELDS)


def emit_csv(rows: list[ReportRow], path) -> None:
    """Write one row per trial; floats carry 17 significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_CSV_HEADER + "\n")
        for row in rows:
            cells = (_FORMATTERS[kind](getattr(row, name)) for name, kind in _CSV_FIELDS)
            fh.write(",".join(cells) + "\n")


def parse_csv(path) -> list[ReportRow]:
    """Read back a file written by :func:`emit_csv`, recovering exact floats."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(_CSV_FIELDS):
                raise ValueError(f"{path}: bad row {line!r}")
            rows.append(
                ReportRow(
                    *(_PARSERS[kind](text) for (_, kind), text in zip(_CSV_FIELDS, parts))
                )
            )
    return rows


def emit_plotdata(rows: list[ReportRow], path) -> None:
    """Write (kappa, defect) pairs, one series per method, blank-line separated."""
    methods = []
    for row in rows:
        if row.method not in methods:
            methods.append(row.method)
    with open(path, "w", encoding="ascii") as fh:
        for i, method in enumerate(methods):
            if i:
                fh.write("\n")
            fh.write(f"# {method}\n")
            for row in rows:
                if row.method == method:
                    fh.write(f"{_fmt(row.kappa_measured)} {_fmt(row.defect)}\n")
