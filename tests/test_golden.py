"""Committed sha256 digests of ``q`` and ``r`` for every driver.

The factor kernels use only numpy add, multiply, divide and sqrt in a fixed
order, so ``q`` and ``r`` are pinned bit for bit.  The inputs avoid LAPACK:
seeded PCG64 uniform draws with columns scaled by powers of two,
integer-valued matrices, ``gen_lauchli`` and ``gen_hilbert_like``.  Audit
record fields come from LAPACK SVDs and are not pinned.

``tests/golden_digests.json`` is written by running this file as a script:
``PYTHONPATH=src python tests/test_golden.py``.  Regenerating it changes the
factorization contract and must be stated as such.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import blockgs as bg

GOLDEN = Path(__file__).with_name("golden_digests.json")

# (label, driver, partition kind); a partition kind of None means the
# driver takes no partition.
_METHODS = (
    ("cgs", bg.cgs, None),
    ("mgs", bg.mgs, None),
    ("cgs2", bg.cgs2, None),
    ("bcgs-uniform", bg.bcgs, "uniform"),
    ("bcgs-uneven", bg.bcgs, "uneven"),
    ("bcgs-ones", bg.bcgs, "ones"),
    ("bcgs2-uniform", bg.bcgs2, "uniform"),
    ("bcgs2-uneven", bg.bcgs2, "uneven"),
    ("bcgs2-ones", bg.bcgs2, "ones"),
    ("local_qr", bg.local_qr, None),
)
_SHAPES = ((8, 3), (12, 5), (20, 8), (30, 11), (40, 16), (50, 20), (64, 24),
           (80, 31), (100, 40), (60, 9))


def _input(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "scaled":
        # Column j is scaled by 2**(-j * step), exactly.
        step = seed % 4
        scale = 2.0 ** -(step * np.arange(n, dtype=np.float64))
        return np.asfortranarray((rng.random((m, n)) - 0.5) * scale)
    if kind == "integer":
        return np.asfortranarray(rng.integers(-9, 10, (m, n)).astype(np.float64))
    if kind == "lauchli":
        return bg.gen_lauchli(n, 2.0 ** -(10 + seed % 20))
    return bg.gen_hilbert_like(m, min(n, 6))


def _partition(kind: str, n: int, seed: int) -> bg.BlockPartition:
    if kind == "ones":
        return bg.BlockPartition.ones(n)
    if kind == "uniform":
        return bg.BlockPartition.uniform(n, 2 + seed % 6)
    # Uneven: widths cycle through 1..4, starting from the seed.
    widths, left = [], n
    while left:
        w = min(left, 1 + (seed + len(widths)) % 4)
        widths.append(w)
        left -= w
    return bg.BlockPartition(tuple(widths))


def _cases():
    kinds = ("scaled", "integer", "lauchli", "hilbert")
    for i, (label, _, part) in enumerate(_METHODS):
        for j, (m, n) in enumerate(_SHAPES):
            seed = 10 * i + j
            kind = kinds[seed % 4]
            rows, cols = _input(kind, m, n, seed).shape
            yield f"{label}/{kind}/{rows}x{cols}/{seed}"


def _factor(case: str):
    label, kind, shape, seed = case.split("/")
    m, n = map(int, shape.split("x"))
    seed = int(seed)
    _, driver, part = next(entry for entry in _METHODS if entry[0] == label)
    a = _input(kind, m, n, seed)
    if part is None:
        return driver(a)
    return driver(a, _partition(part, a.shape[1], seed))


def _digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(x).tobytes(order="F")).hexdigest()


def _digests(case: str) -> dict:
    res = _factor(case)
    return {"q": _digest(res.q), "r": _digest(res.r)}


def test_cases_cover_every_driver():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_cases())
    assert len(golden) >= 100


@pytest.mark.parametrize("label", [entry[0] for entry in _METHODS])
def test_factors_match_golden_digests(label):
    golden = json.loads(GOLDEN.read_text())
    cases = [case for case in golden if case.split("/")[0] == label]
    assert cases
    mismatched = [case for case in cases if _digests(case) != golden[case]]
    assert mismatched == []


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: _digests(case) for case in _cases()}, indent=1, sort_keys=True)
        + "\n"
    )
