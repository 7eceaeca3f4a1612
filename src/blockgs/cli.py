"""Command-line entry point; ``--block`` and ``--blocks`` exclude each other.

Exit codes: 0 on success, 2 on a usage error (an unreadable input or an
unwritable output among them) or a failed stability check under the strict
policy, 1 on hard numerical breakdown (rank-deficient panel, a vanished
remainder, or an SVD that does not converge).
"""

from __future__ import annotations

import argparse
import sys

from .core import BlockPartition
from .errors import (
    AssumptionFailureError,
    GramSchmidtBreakdownError,
    RankDeficientError,
    SpectralNormError,
)
from .harness import GENERATORS, METHODS, POLICIES, ExperimentConfig, emit_csv, emit_plotdata, run
from .mmio import read_matrix_market


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factor",
        description=(
            "Factor generated or file-based test matrices with Gram-Schmidt "
            "variants and record orthogonality and residual measurements."
        ),
    )
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument("--m", type=int, help="row count (derived for lauchli/file)")
    parser.add_argument("--n", type=int, help="column count (derived for file)")
    blocking = parser.add_mutually_exclusive_group()
    blocking.add_argument("--block", type=int, help="uniform block width for bcgs/bcgs2")
    blocking.add_argument(
        "--blocks", type=str, help="explicit comma-separated block widths, e.g. 4,4,2"
    )
    parser.add_argument("--gen", default="svd", choices=GENERATORS)
    parser.add_argument(
        "--kappa",
        type=float,
        default=1.0,
        help="target condition number (for lauchli: perturbation = 1/kappa)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--policy", default="warn", choices=POLICIES)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--csv", required=True, help="output CSV path")
    parser.add_argument("--plot", help="optional plot-data output path")
    parser.add_argument("--input", help="MatrixMarket input file for --gen file")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    m, n = args.m, args.n
    if args.gen == "file":
        if args.input is None:
            raise ValueError("--gen file needs --input")
        m, n = read_matrix_market(args.input).shape
    elif args.gen == "lauchli":
        if n is None:
            raise ValueError("--gen lauchli needs --n")
        m = n + 1
    else:
        if m is None or n is None:
            raise ValueError(f"--gen {args.gen} needs --m and --n")
    blocks = None
    if args.block is not None:
        blocks = BlockPartition.uniform(n, args.block)
    elif args.blocks is not None:
        try:
            widths = tuple(int(tok) for tok in args.blocks.split(",") if tok)
        except ValueError as exc:
            raise ValueError(f"cannot parse --blocks {args.blocks!r}") from exc
        blocks = BlockPartition(widths)
    return ExperimentConfig(
        method=args.method,
        m=m,
        n=n,
        blocks=blocks,
        generator=args.gen,
        kappa=args.kappa,
        seed=args.seed,
        policy=args.policy,
        trials=args.trials,
        input_path=args.input,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
    except (OSError, ValueError) as exc:  # OSError: --input cannot be read
        parser.error(str(exc))

    try:
        rows = run(config)
    except AssumptionFailureError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 2
    except (RankDeficientError, GramSchmidtBreakdownError, SpectralNormError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 1

    try:
        emit_csv(rows, args.csv)
        if args.plot:
            emit_plotdata(rows, args.plot)
    except OSError as exc:
        parser.error(str(exc))
    worst_defect = max(row.defect for row in rows)
    worst_resid = max(row.rel_residual for row in rows)
    print(
        f"{config.method}: {len(rows)} trial(s), worst defect {worst_defect:.3e}, "
        f"worst relative residual {worst_resid:.3e} -> {args.csv}"
    )
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
