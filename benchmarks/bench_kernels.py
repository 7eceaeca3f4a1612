"""Time the kernel twins and check them bitwise against the scalar sources.

Times the pure-numpy twin of each hot kernel on the ROADMAP shapes: the
products 500x240 @ 240x16 (Q S), 240x500 @ 500x16 (Q^T B, a transposed view)
and 2000x64 @ 64x64, the width-1 products of a column step (u.T b with a
200x64 u and a 200x1 b, and u s with a 64x1 s), the Householder panel QR of
a 2000x128 panel, and the norm of a 2000-entry column.  When numba is
importable the numba twin is timed next to it and must agree with the numpy
twin byte for byte.

Before timing, each numpy twin is compared byte for byte with its scalar
source (``_matmul_fill``, ``_householder_fill``, ``_sumsq_py``), which is plain
Python without numba.  The scalar loops are too slow at the full shapes, so
that comparison runs on a reduced shape of the same orientation.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

from blockgs import kernels


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _matmul_run(fill):
    def run(a, b):
        out = np.empty((a.shape[0], b.shape[1]), order="F")
        fill(a, b, out)
        return out.tobytes()

    return run


def _householder_run(fill):
    def run(b):
        m, p = b.shape
        rwork = np.array(b, order="F", copy=True)
        q = np.asfortranarray(np.eye(m, p))
        v = np.zeros((m, p), order="F")
        beta = np.zeros(p)
        fill(rwork, q, v, beta)
        return q.tobytes() + rwork.tobytes()

    return run


def _sumsq_run(fn):
    return lambda x: np.float64(fn(x)).tobytes()


def _matmul_args(rng, m, k, n, transposed):
    # transposed: the left operand is the C-ordered view u.T of an F-ordered
    # k-by-m panel, as in the projection s = u.T @ b.
    if transposed:
        a = np.asfortranarray(rng.standard_normal((k, m))).T
    else:
        a = np.asfortranarray(rng.standard_normal((m, k)))
    return a, np.asfortranarray(rng.standard_normal((k, n)))


def cases(rng):
    """(name, numpy run, scalar run, numba run or None, full args, reduced args)."""
    numba = kernels.both_backends_available()
    out = []
    for m, k, n, transposed in [
        (500, 240, 16, False),
        (240, 500, 16, True),
        (2000, 64, 64, False),
        (64, 200, 1, True),
        (200, 64, 1, False),
    ]:
        out.append((
            f"matmul {m}x{k} @ {k}x{n}" + (" (u.T)" if transposed else ""),
            _matmul_run(kernels._matmul_fill_numpy),
            _matmul_run(kernels._matmul_fill),
            _matmul_run(kernels._matmul_fill_numba) if numba else None,
            _matmul_args(rng, m, k, n, transposed),
            _matmul_args(rng, m // 4, k // 4, n, transposed),
        ))
    out.append((
        "householder_qr 2000x128",
        _householder_run(kernels._householder_fill_numpy),
        _householder_run(kernels._householder_fill),
        _householder_run(kernels._householder_fill_numba) if numba else None,
        (np.asfortranarray(rng.standard_normal((2000, 128))),),
        (np.asfortranarray(rng.standard_normal((257, 16))),),
    ))
    x = rng.standard_normal(2000)
    out.append((
        "vec_norm m=2000",
        _sumsq_run(kernels._sumsq_numpy),
        _sumsq_run(kernels._sumsq_py),
        _sumsq_run(kernels._sumsq_numba) if numba else None,
        (x,),
        (x,),
    ))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    numba = kernels.both_backends_available()
    rows = []
    for name, run_np, run_scalar, run_nb, full, reduced in cases(np.random.default_rng(0)):
        if run_np(*reduced) != run_scalar(*reduced):
            raise SystemExit(f"{name}: numpy twin differs from the scalar source")
        t_np = _time(lambda: run_np(*full), args.repeat)
        t_nb = None
        if run_nb is not None:
            if run_nb(*full) != run_np(*full):  # also warms the JIT
                raise SystemExit(f"{name}: numba and numpy twins differ")
            t_nb = _time(lambda: run_nb(*full), args.repeat)
        rows.append((name, t_np, t_nb))

    header = f"{'kernel':<32} {'numpy':>12}"
    print(header + (f" {'numba':>12} {'speedup':>9}" if numba else ""))
    for name, t_np, t_nb in rows:
        line = f"{name:<32} {t_np * 1e3:>10.2f}ms"
        if t_nb is not None:
            line += f" {t_nb * 1e3:>10.2f}ms {t_np / t_nb:>8.1f}x"
        print(line)
    print("numpy twins match the scalar sources bitwise on the reduced shapes")
    if numba:
        print("numba and numpy twins agree bitwise on the full shapes")
    else:
        print("numba is not installed; numba column omitted")


if __name__ == "__main__":
    main()
