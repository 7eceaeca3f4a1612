"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from blockgs import core, drivers
from run import Position, Workload

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

TINY = Workload(
    m=40,
    positions=(
        Position("cgs", 10, 12),
        Position("bcgs2", 13, 16, p=4),
        Position("mgs", 10, 12),
        Position("cgs2", 10, 12),
        Position("householder", 13, 16),
    ),
    expect_nonzero=run.WORKLOADS["blocked"].expect_nonzero
    + run.WORKLOADS["columnwise"].expect_nonzero,
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
    return tmp_path


def _main(capsys, *args):
    assert run.main(["--workload", "tiny", "--seed", "3", *args]) == 0
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    return out[:-1], json.loads(out[-1]), captured.err


def _digests(records):
    return [(r.q_sha256, r.r_sha256) for r in records]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, section):
    table, result, _ = _main(capsys, "--seconds", "0.2", "--trace", trace)
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in table), name
    assert any(line.startswith("failed_frac") for line in table)
    assert any(line.startswith("env ") and '"backend"' in line for line in table)


def test_flipped_bit_in_q_counts_as_failed(tiny, capsys, monkeypatch):
    clean, _, _ = run.measure("tiny", TINY, 3, 0.0, False)
    reference = [dict(run.asdict(r.spec), q=r.q_sha256, r=r.r_sha256) for r in clean]
    monkeypatch.setattr(run, "load_reference", lambda name, seed: reference)
    original = drivers.cgs

    def flipped(a):
        trace = original(a)
        trace.q.view(np.uint64)[0, 0] ^= 1
        return trace

    monkeypatch.setattr(drivers, "cgs", flipped)
    table, result, err = _main(capsys, "--seconds", "0", "--trace", "0")
    assert result == dict(result, correct=False, attempted=len(TINY.positions), failed=1)
    assert [line.split()[1] for line in table if line.startswith("failed_frac")] == ["0.2"]
    assert "FAILED trial 0 (cgs" in err and "q digest differs" in err


def test_traced_and_untraced_runs_agree_bitwise(tiny):
    count = 2 * len(TINY.positions)
    plain, _, _ = run.measure("tiny", TINY, 5, float("inf"), False, max_trials=count)
    traced, _, tracer = run.measure("tiny", TINY, 5, float("inf"), True, max_trials=count)
    assert _digests(plain) == _digests(traced)
    assert not any(r.problems for r in plain + traced)
    assert tracer.spans and drivers.orthogonality_defect is core.orthogonality_defect


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blocked", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
