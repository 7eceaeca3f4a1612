"""End-to-end benchmark of blockgs on the active kernel backend.

Runs one named workload as a closed loop (one trial after another, one
process) for about ``--seconds`` seconds, ending on a whole cycle of the
workload's trial shapes, checks every trial's output, and prints
a table followed by a one-line JSON result.  With ``--trace 0`` the JSON
holds the end-to-end metrics; with ``--trace 1`` the library is traced from
outside and the JSON holds the per-layer metrics.  See README.md here.

    python3 perfbench/run.py --workload blocked --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_digests.json"
RESULTS_DIR = HERE / "results"

sys.path.insert(0, str(SRC))
try:
    import blockgs
    from blockgs import bounds, core, drivers, generators, harness, localqr
except ImportError as exc:
    sys.exit(f"perfbench: cannot import blockgs from {SRC}: {exc}")
if Path(blockgs.__file__).resolve().parent != SRC / "blockgs":
    sys.exit(f"perfbench: imported blockgs from {blockgs.__file__}, not from {SRC}")

DEFAULT_SEED = 0
SETUP_REPEATS = 21
KAPPA_LADDER = tuple(10.0 ** (2 * j) for j in range(7))
TWO_PASS = ("cgs2", "bcgs2")
# Median time of calibration_s() on the host the benchmark was tuned on; the
# end-to-end times are reported at this host speed (see calibration_s).
CALIBRATION_REF_S = 0.1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Position:
    """One slot of a workload's trial cycle; n is drawn from [n_lo, n_hi]."""

    method: str
    n_lo: int
    n_hi: int
    p: int | None = None


@dataclass(frozen=True)
class Workload:
    """A cycle of trial shapes at one row count, plus the layers it must reach."""

    m: int
    positions: tuple[Position, ...]
    expect_nonzero: tuple[str, ...]
    expect_zero: tuple[str, ...] = ()


# Every workload reaches these layers.
_COMMON = (
    "kernels.matmul.calls",
    "kernels.matmul.diag.busy_s",
    "kernels.matmul.audit.busy_s",
    "kernels.matmul.steps.busy_s",
    "drivers.factor.busy_s",
    "drivers.audit.busy_s",
    "core.spectral_norm.calls",
    "core.relative_residual.busy_s",
    "generators.busy_s",
    "bounds.check_assumptions.busy_s",
    "bounds.blocks_checked",
)
_PANEL = (
    "kernels.householder_qr.calls",
    "localqr.local_qr.calls",
    "steps.block_cgs2_step.calls",
    "steps.pass1.busy_s",
    "steps.pass2.busy_s",
    "core.upper_triangular_inverse.busy_s",
)

# Each position draws n from its own narrow stratum, and a run always ends
# on a whole cycle, so every run sees the same mix of sizes whatever the
# seed.  The strata span the workload's stated range.
WORKLOADS = {
    # The paper's method at its intended block widths; the heaviest regime
    # of the acceptance corpus.  Time splits between the block steps
    # (projection matmul plus Householder panel QR) and the per-block audit.
    "blocked": Workload(
        m=500,
        positions=(
            Position("bcgs2", 96, 99, p=16),
            Position("bcgs2", 157, 160, p=8),
            Position("bcgs2", 126, 129, p=16),
            Position("bcgs2", 96, 99, p=8),
            Position("bcgs2", 157, 160, p=16),
        ),
        expect_nonzero=_COMMON + _PANEL,
    ),
    # The loss-of-orthogonality comparison the CLI exists for.  The
    # per-column audit dominates factor time, householder_qr is never
    # called, and it is the only workload where vec_norm and dot do work.
    "columnwise": Workload(
        m=200,
        positions=(
            Position("cgs", 48, 51),
            Position("mgs", 63, 66),
            Position("cgs2", 77, 80),
            Position("cgs", 63, 66),
            Position("mgs", 77, 80),
            Position("cgs2", 48, 51),
            Position("cgs", 77, 80),
            Position("mgs", 48, 51),
            Position("cgs2", 63, 66),
        ),
        expect_nonzero=_COMMON + (
            "kernels.vec_norm.calls",
            "kernels.dot.calls",
            "steps.cgs2_step.busy_s",
        ),
        expect_zero=("kernels.householder_qr.calls",),
    ),
    # Wide panels on tall matrices: householder_qr dominates factor time and
    # the few blocks keep the audit small.  The matmul inner dimension is
    # 2000 here, against short ones in columnwise, so a matmul rewrite that
    # favours one shape shows on the other.  bcgs2 stops at n=83: trials at
    # n=99 and n=128 took 3-5 s, too long for the calibrations around them
    # to stand for the host's state throughout, and too few fitted in a run.
    "tall-panel": Workload(
        m=2000,
        positions=(
            Position("bcgs2", 64, 67, p=32),
            Position("householder", 125, 128),
            Position("bcgs2", 80, 83, p=32),
            Position("householder", 64, 67),
        ),
        expect_nonzero=_COMMON + _PANEL,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_s.p50": "s",
    "factor_s.p50": "s",
    "peak_rss_mb": "MB",
}

_LAYER_SUFFIX_UNITS = (
    ("gflops", "GFLOP/s"),
    ("gflop", "GFLOP"),
    ("calls", "count"),
    ("blocks_checked", "count"),
    ("share", "ratio"),
    ("frac", "ratio"),
    ("_s", "s"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


@dataclass(frozen=True)
class TrialSpec:
    index: int
    method: str
    m: int
    n: int
    p: int | None
    kappa: float
    matrix_seed: int


def trial_plan(name: str, workload: Workload, seed: int):
    """Endless, seed-determined trial sequence cycling over the positions."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    ns = [int(rng.integers(pos.n_lo, pos.n_hi + 1)) for pos in workload.positions]
    for index in itertools.count():
        slot = index % len(ns)
        pos = workload.positions[slot]
        kappa = KAPPA_LADDER[int(rng.integers(len(KAPPA_LADDER)))]
        yield TrialSpec(index, pos.method, workload.m, ns[slot], pos.p, kappa,
                        int(rng.integers(2**31)))


def _bound_width(spec: TrialSpec) -> int:
    return spec.p if spec.method == "bcgs2" else 1


_CALIBRATION_PAIRS = tuple(
    (rng.standard_normal(a_shape), rng.standard_normal(b_shape))
    for rng in [np.random.default_rng(1108_4209)]
    for a_shape, b_shape in (((500, 16), (16, 16)), ((16, 500), (500, 4))))


def calibration_s() -> float:
    """Wall time of a fixed pure-numpy loop: the host-speed yardstick.

    The loop mixes the operations the library's numpy kernels spend their
    time in (column updates of a long and of a short vector, driven from
    Python), but is the benchmark's own code, so no library change moves it.
    A shared host flips between a fast and a slow state lasting seconds,
    about 1.8x apart, in CPU time as well as wall time.  A trial's time
    divided by the mean of the calibrations just before and just after it
    (and multiplied by CALIBRATION_REF_S) no longer carries that state.  The
    loop takes about 0.1 s: a 10 ms one was too noisy to track the host.
    """
    start = time.perf_counter()
    for _ in range(30):
        for a, b in _CALIBRATION_PAIRS:
            for j in range(b.shape[1]):
                acc = a[:, 0] * b[0, j]
                for k in range(1, a.shape[1]):
                    acc += a[:, k] * b[k, j]
    return time.perf_counter() - start


@dataclass
class TrialOutput:
    q: np.ndarray
    r: np.ndarray
    defect: float
    residual: float
    verdicts: list
    factor_s: float


def run_trial(spec: TrialSpec, tracer: layers.Tracer | None = None) -> TrialOutput:
    """The public-call sequence of ``harness._run_trial``, driver timed alone.

    Names are looked up on their modules at call time, so a traced run sees
    the tracer's wrappers.
    """
    a = generators.gen_svd_spectrum(spec.m, spec.n, spec.kappa, spec.matrix_seed)
    if spec.method == "bcgs2":
        part = core.BlockPartition.uniform(spec.n, spec.p)

        def driver(x):
            return drivers.bcgs2(x, part)
    elif spec.method == "householder":
        def driver(x):
            return localqr.local_qr(x)
    else:
        driver = getattr(drivers, spec.method)
    if tracer is not None:
        driver = tracer.wrap(layers.FACTOR, driver)

    start = time.perf_counter()
    result = driver(a)
    factor_s = time.perf_counter() - start

    if spec.method == "householder":
        factorization = core.QRFactorization(result.q, result.r)
        defect = core.orthogonality_defect(factorization.q)
    else:
        factorization = result.factorization
        defect = result.per_block[-1].defect
    residual = core.relative_residual(a, factorization)
    verdicts = []
    if spec.method in TWO_PASS:
        ctx = bounds.BoundContext(m=spec.m, p=_bound_width(spec), n=spec.n)
        verdicts = bounds.check_assumptions(result, ctx)
    return TrialOutput(factorization.q, factorization.r, defect, residual, verdicts, factor_s)


def digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(x).tobytes(order="F")).hexdigest()


def check_trial(spec: TrialSpec, out: TrialOutput, digests: tuple[str, str],
                reference: dict | None) -> list[str]:
    """Problems with one trial's output: digest mismatch or a broken bound."""
    problems = []
    if reference is not None:
        expected = {k: reference[k] for k in ("method", "m", "n", "p", "kappa", "matrix_seed")}
        if expected != {k: v for k, v in asdict(spec).items() if k in expected}:
            problems.append(f"reference digest was recorded for another trial: {expected}")
        else:
            problems += [f"{label} digest differs from the reference"
                         for label, got in zip("qr", digests) if got != reference[label]]
    if not (np.isfinite(out.q).all() and np.isfinite(out.r).all()):
        problems.append("non-finite entries in q or r")
    if spec.method in TWO_PASS and all(v.either_passed for v in out.verdicts):
        row = harness.ReportRow(spec.method, spec.m, spec.n, _bound_width(spec), math.nan,
                                out.defect, out.residual, True, 0.0)
        try:
            harness.verify_report_contracts([row])
        except AssertionError as exc:
            problems.append(str(exc))
    return problems


@dataclass
class TrialRecord:
    spec: TrialSpec
    trial_s: float
    problems: list[str]
    factor_s: float | None = None
    calibration_s: float | None = None  # mean of the calibrations around it; None when traced
    q_sha256: str | None = None
    r_sha256: str | None = None
    verdicts: int = 0
    verdicts_passed: int = 0


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            reference: list | None = None, max_trials: int | None = None):
    """Run whole cycles of trials for about ``seconds``; return
    (records, elapsed, tracer).

    Stopping only at the end of a cycle makes every position count equally
    in the medians and per-trial means, whatever the run length.  A run
    stops at the cycle end nearest the deadline (at least one cycle): it
    starts another cycle only if half the last one still fits.  Untraced
    trials are each bracketed by host-speed calibrations; the one after a
    trial is also the one before the next.
    ``reference`` lists recorded digests by trial index; trials beyond it
    are checked against the bounds only.
    """
    tracer = layers.Tracer() if trace else None
    cycle = len(workload.positions)
    records: list[TrialRecord] = []

    def attempt(spec):
        try:
            return run_trial(spec, tracer), []
        except Exception:  # a raising trial is a counted, named failure
            return None, ["raised " + traceback.format_exc().strip()]

    timed = tracer.wrap(layers.TRIAL, attempt) if tracer else attempt
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        deadline = start + seconds
        cycle_start = start
        before = calibration_s() if tracer is None else None
        for spec in trial_plan(name, workload, seed):
            t0 = time.perf_counter()
            out, problems = timed(spec)
            rec = TrialRecord(spec, time.perf_counter() - t0, problems)
            if tracer is None:
                after = calibration_s()
                rec.calibration_s = (before + after) / 2
                before = after
            if out is not None:
                rec.factor_s = out.factor_s
                rec.q_sha256, rec.r_sha256 = digest(out.q), digest(out.r)
                rec.verdicts = len(out.verdicts)
                rec.verdicts_passed = sum(v.either_passed for v in out.verdicts)
                ref = reference[spec.index] if reference and spec.index < len(reference) else None
                rec.problems = check_trial(spec, out, (rec.q_sha256, rec.r_sha256), ref)
            records.append(rec)
            if max_trials is not None and len(records) >= max_trials:
                break
            if len(records) % cycle == 0:
                now = time.perf_counter()
                if now + (now - cycle_start) / 2 >= deadline:
                    break
                cycle_start = now
        elapsed = time.perf_counter() - start
    return records, elapsed, tracer


def warm_up() -> None:
    """Call every driver once at a tiny size, so lazy set-up (imports inside
    numpy, a JIT compile on the numba backend) happens before timing."""
    tiny = Workload(m=24, positions=tuple(
        Position(meth, 8, 8, p=4 if meth == "bcgs2" else None)
        for meth in ("cgs", "mgs", "cgs2", "bcgs2", "householder")), expect_nonzero=())
    for spec in itertools.islice(trial_plan("warm-up", tiny, 0), len(tiny.positions)):
        run_trial(spec)


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median time from starting a fresh interpreter to its first trial being
    ready to run: the import of blockgs and the warm-up.

    Unlike the trial times it is not scaled by a calibration: the probes'
    start-up follows the host state less closely than the calibration loop,
    and scaling it widened its spread over ten runs (0.11 to 0.34).
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blockgs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def env_stamp(workload: str, seed: int, trace: bool) -> dict:
    """Everything needed to trace a number back to the program that made it."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "backend": blockgs.backend(),
        "numpy": np.__version__,
        "blas": _blas(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "BLOCKGS_PURE_NUMPY": os.environ.get("BLOCKGS_PURE_NUMPY"),
        "BGS_THREADS": os.environ.get("BGS_THREADS"),
        "platform": platform_key(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def platform_key() -> str:
    """Machine, numpy, BLAS, its thread settings, the usable CPU count and
    the enabled CPU features: results are bitwise reproducible only on one
    such platform, since BLAS may split work by thread count."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    enabled = " ".join(sorted(k for k, on in features.items() if on))
    threads = " ".join(f"{var}={os.environ.get(var, '')}" for var in BLAS_THREAD_VARS)
    return (f"{platform.machine()} numpy {np.__version__} {_blas()} {threads} "
            f"nproc {len(os.sched_getaffinity(0))} cpu "
            f"{hashlib.sha256(enabled.encode()).hexdigest()[:12]}")


def load_reference(name: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED or not REFERENCE_PATH.exists():
        return None
    data = json.loads(REFERENCE_PATH.read_text())
    if data["platform"] != platform_key():
        print(f"note: reference digests were recorded on {data['platform']!r}, not on "
              f"{platform_key()!r}; checking bounds only", file=sys.stderr)
        return None
    return data["workloads"].get(name)


def record_reference(name: str, count: int) -> None:
    records, _, _ = measure(name, WORKLOADS[name], DEFAULT_SEED, math.inf, False,
                            max_trials=count)
    bad = [r for r in records if r.problems]
    if bad:
        raise SystemExit(f"not recording: trial {bad[0].spec.index} failed: {bad[0].problems}")
    data = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    if data.get("platform") != platform_key():
        data = {"seed": DEFAULT_SEED, "platform": platform_key(), "workloads": {}}
    data["workloads"][name] = [dict(asdict(r.spec), q=r.q_sha256, r=r.r_sha256)
                               for r in records]
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} reference digests for {name}")


def coverage_problems(name: str, workload: Workload, metrics: dict) -> list[str]:
    problems = [f"layer metric {k} is zero on {name}; a rename or a new binding "
                "may have hidden it from the tracer"
                for k in workload.expect_nonzero if not metrics.get(k)]
    problems += [f"layer metric {k} is {metrics[k]} on {name}, where it should be zero"
                 for k in workload.expect_zero if metrics.get(k)]
    return problems


def position_median(records, cycle: int, value) -> float:
    """Median of ``value`` over each position's trials, combined over the
    cycle's positions by geometric mean.

    Every position has the same number of trials, so each shape counts
    equally and a change to any one shape moves the figure; a plain median
    over mixed shapes would rest on the few trials of the middle shape.
    """
    by_position: dict[int, list[float]] = {}
    for r in records:
        if value(r) is not None:
            by_position.setdefault(r.spec.index % cycle, []).append(value(r))
    if not by_position:
        return math.nan
    return math.exp(statistics.fmean(math.log(statistics.median(v))
                                     for v in by_position.values()))


def summarize(name: str, workload: Workload, records, tracer, setup_s):
    """Metrics of one run, plus their wall-clock values where they differ.

    Traced, the metrics are per layer, in wall time.  Untraced, they are
    end-to-end, and every trial time is scaled to the reference host speed:
    multiplied by CALIBRATION_REF_S over the mean of the calibrations just
    before and just after the trial.  ``setup_s`` is the set-up probes'
    median wall time.
    """
    if tracer is not None:
        metrics = layers.layer_metrics(
            tracer.spans, len(records), layers.per_span_cost(),
            sum(r.verdicts for r in records), sum(r.verdicts_passed for r in records))
        return metrics, coverage_problems(name, workload, metrics), {}
    cycle = len(workload.positions)

    def scaled(seconds, r):
        return seconds * CALIBRATION_REF_S / r.calibration_s

    wall = {
        "trials_per_s": len(records) / sum(r.trial_s for r in records),
        "trial_s.p50": position_median(records, cycle, lambda r: r.trial_s),
        "factor_s.p50": position_median(records, cycle, lambda r: r.factor_s),
        "calibration_s": statistics.median(r.calibration_s for r in records),
    }
    return {
        "setup_s": setup_s,
        "trials_per_s": len(records) / sum(scaled(r.trial_s, r) for r in records),
        "trial_s.p50": position_median(records, cycle, lambda r: scaled(r.trial_s, r)),
        "factor_s.p50": position_median(
            records, cycle, lambda r: None if r.factor_s is None else scaled(r.factor_s, r)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, [], wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", type=int, metavar="N",
                        help="record q/r digests of the first N trials of the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        warm_up()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.record_reference:
        record_reference(args.workload, args.record_reference)
        return 0

    name, workload, trace = args.workload, WORKLOADS[args.workload], bool(args.trace)
    stamp = env_stamp(name, args.seed, trace)
    setup_s = setup_seconds() if not trace else None
    warm_up()
    records, elapsed, tracer = measure(name, workload, args.seed, args.seconds, trace,
                                       load_reference(name, args.seed))
    metrics, coverage, wall = summarize(name, workload, records, tracer, setup_s)
    failed = [r for r in records if r.problems]
    units = END_TO_END_UNITS if not trace else {k: layer_unit(k) for k in metrics}

    print("env " + json.dumps(stamp))
    samples = f"(n={len(records)})"
    for key, value in metrics.items():
        note = samples if key.endswith(".p50") else ""
        print(f"{key:<40} {value:>14.6g} {units[key]:<8} {note}")
    for key, value in wall.items():
        print(f"{'wall.' + key:<40} {value:>14.6g} {units.get(key, 's'):<8} "
              f"(unscaled; reference calibration_s {CALIBRATION_REF_S})")
    print(f"{'failed_frac':<40} {len(failed) / len(records):>14.6g} {'ratio':<8} "
          f"({len(failed)} of {len(records)})")
    for r in failed:
        s = r.spec
        print(f"FAILED trial {s.index} ({s.method} m={s.m} n={s.n} p={s.p} kappa={s.kappa:g} "
              f"matrix_seed={s.matrix_seed}): {'; '.join(r.problems)}", file=sys.stderr)
    for problem in coverage:
        print(f"COVERAGE FAILURE: {problem}", file=sys.stderr)

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{name}-seed{args.seed}-trace{int(trace)}"
    Path(f"{stem}.json").write_text(json.dumps({
        "env": stamp,
        "elapsed_s": elapsed,
        "metrics": metrics,
        "wall": wall,
        "coverage_problems": coverage,
        "trials": [asdict(r) for r in records],
    }, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": not failed and not coverage,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
