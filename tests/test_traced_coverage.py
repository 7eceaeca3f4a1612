"""A traced tiny benchmark run reaches every layer the benchmark times.

``perfbench/run.py`` checks per workload that each expected per-layer
metric is nonzero, so a refactor that hides a traced call from the tracer
(a renamed binding, a name looked up another way) fails that check.  This
runs it in-process at a tiny size, loading ``run.py`` and ``layers.py``
unchanged.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_tiny_run_covers_every_layer(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends src/
    _load("layers", PERFBENCH / "layers.py", monkeypatch)  # run.py imports it by this name
    run = _load("perfbench_run", PERFBENCH / "run.py", monkeypatch)
    pos = run.Position
    tiny = run.Workload(
        m=40,
        positions=(pos("cgs", 10, 12), pos("bcgs2", 13, 16, p=4), pos("mgs", 10, 12),
                   pos("cgs2", 10, 12), pos("householder", 13, 16)),
        expect_nonzero=run.WORKLOADS["blocked"].expect_nonzero
        + run.WORKLOADS["columnwise"].expect_nonzero,
    )
    records, _, tracer = run.measure("tiny", tiny, 0, float("inf"), True, max_trials=5)
    metrics = run.summarize("tiny", tiny, records, tracer, None)[0]
    assert run.coverage_problems("tiny", tiny, metrics) == []
    assert [r.spec.method for r in records] == ["cgs", "bcgs2", "mgs", "cgs2", "householder"]
    assert [r.problems for r in records] == [[]] * 5
