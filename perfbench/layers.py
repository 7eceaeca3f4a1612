"""Span tracing from outside the library, and the per-layer metrics built on it.

The tracer rebinds module attributes of ``blockgs`` to timing wrappers and
restores them on exit.  Modules import names with ``from .core import ...``,
so every importing module's binding is wrapped separately; ``kernels.*`` is
looked up on the module at call time, so wrapping it there is enough.

A span is ``[name, parent, start, end, flop, audit]``; spans are kept in
memory and written out when the run ends.  "Busy" is inclusive span time;
"self" is busy time minus the time of the span's direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, PARENT, START, END, FLOP, AUDIT = range(6)

TRIAL = "harness.trial"
FACTOR = "drivers.factor"


def matmul_flop(a, b, *_):
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def householder_flop(b, *_):
    # Thin QR of an m-by-p panel (2mp^2 - 2p^3/3) plus forming the explicit
    # m-by-p q from the reflectors (the same count again).
    m, p = b.shape
    return 4.0 * m * p * p - 4.0 * p**3 / 3.0


def _bindings():
    """(module, attribute, span name, flop counter, audit?) for every wrapped binding."""
    from blockgs import bounds, core, drivers, generators, kernels, localqr, steps

    return [
        (kernels, "matmul", "kernels.matmul", matmul_flop, False),
        (kernels, "householder_qr", "kernels.householder_qr", householder_flop, False),
        (kernels, "vec_norm", "kernels.vec_norm", None, False),
        (kernels, "dot", "kernels.dot", None, False),
        (core, "spectral_norm", "core.spectral_norm", None, False),
        (core, "relative_residual", "core.relative_residual", None, False),
        (core, "orthogonality_defect", "core.orthogonality_defect", None, False),
        (localqr, "local_qr", "localqr.local_qr", None, False),
        (localqr, "spectral_norm", "core.spectral_norm", None, False),
        (steps, "local_qr", "localqr.local_qr", None, False),
        (steps, "block_cgs_step", "steps.block_cgs_step", None, False),
        (steps, "block_cgs2_step", "steps.block_cgs2_step", None, False),
        (steps, "cgs2_step", "steps.cgs2_step", None, False),
        (steps, "spectral_norm", "core.spectral_norm", None, False),
        (steps, "upper_triangular_inverse", "core.upper_triangular_inverse", None, False),
        (drivers, "local_qr", "localqr.local_qr", None, False),
        (drivers, "block_cgs_step", "steps.block_cgs_step", None, False),
        (drivers, "block_cgs2_step", "steps.block_cgs2_step", None, False),
        (drivers, "cgs2_step", "steps.cgs2_step", None, False),
        (drivers, "_project", "steps.project", None, False),
        # The per-block audit: every core diagnostic a driver calls itself.
        (drivers, "orthogonality_defect", "core.orthogonality_defect", None, True),
        (drivers, "spectral_norm", "core.spectral_norm", None, True),
        (drivers, "upper_triangular_inverse", "core.upper_triangular_inverse", None, True),
        (generators, "gen_svd_spectrum", "generators.gen_svd_spectrum", None, False),
        (bounds, "check_assumptions", "bounds.check_assumptions", None, False),
    ]


class Tracer:
    """Collects spans from wrapped library calls; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, flop=None, audit=False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   flop(*args) if flop else 0.0, audit]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced library name for the duration of the block."""
        saved = []
        try:
            for module, attr, name, flop, audit in _bindings():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, flop, audit))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, parent, start, end, flop, audit) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end, "flop": flop,
                                     "audit": audit}) + "\n")


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, by calibration."""
    def noop(x):
        return x

    traced = Tracer().wrap("calibration", noop)
    clock = time.perf_counter
    t0 = clock()
    for i in range(repeats):
        noop(i)
    t1 = clock()
    for i in range(repeats):
        traced(i)
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)


def _matmul_site(spans, i) -> str | None:
    """Which caller a matmul serves: the nearest classifying ancestor span."""
    j = spans[i][PARENT]
    while j >= 0:
        name = spans[j][NAME]
        if spans[j][AUDIT]:
            return "audit"
        if name.startswith("steps."):
            return "steps"
        if name in ("core.relative_residual", "generators.gen_svd_spectrum"):
            return "diag"
        j = spans[j][PARENT]
    return None


def layer_metrics(spans, trials: int, span_cost: float, checked: int, passed: int) -> dict:
    """Per-trial means of busy/self time, calls and flop for every layer.

    ``checked`` and ``passed`` count stability-check verdicts over the traced
    trials; they are the benchmark's own outcomes, not span data.
    """
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]

    def outermost(i):
        name, j = spans[i][NAME], spans[i][PARENT]
        while j >= 0:
            if spans[j][NAME] == name:
                return False
            j = spans[j][PARENT]
        return True

    busy, self_s, calls, flop = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        flop[name] = flop.get(name, 0.0) + s[FLOP]
        self_s[name] = self_s.get(name, 0.0) + duration[i] - child_time[i]
        if outermost(i):
            busy[name] = busy.get(name, 0.0) + duration[i]

    matmul_site = {"steps": 0.0, "audit": 0.0, "diag": 0.0}
    audit = 0.0
    pass_busy = [0.0, 0.0]
    seen_under: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[NAME] == "kernels.matmul":
            site = _matmul_site(spans, i)
            if site:
                matmul_site[site] += duration[i]
        elif s[NAME] == "steps.block_cgs_step" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "steps.block_cgs2_step":
            k = seen_under.get(s[PARENT], 0)
            seen_under[s[PARENT]] = k + 1
            if k < 2:
                pass_busy[k] += duration[i]
        if s[AUDIT] and (s[PARENT] < 0 or not spans[s[PARENT]][AUDIT]):
            audit += duration[i]

    trial_time = busy.get(TRIAL, 0.0)
    factor = busy.get(FACTOR, 0.0)
    n = max(trials, 1)

    def mean(x):
        return x / n

    def rate(gflop, seconds):
        return gflop / seconds if seconds > 0.0 else 0.0

    out = {}
    for layer in ("kernels.matmul", "kernels.householder_qr"):
        out[f"{layer}.busy_s"] = mean(busy.get(layer, 0.0))
        out[f"{layer}.calls"] = mean(calls.get(layer, 0))
        out[f"{layer}.gflop"] = mean(flop.get(layer, 0.0)) / 1e9
        out[f"{layer}.gflops"] = rate(flop.get(layer, 0.0) / 1e9, busy.get(layer, 0.0))
    for site, seconds in matmul_site.items():
        out[f"kernels.matmul.{site}.busy_s"] = mean(seconds)
    for layer in ("kernels.vec_norm", "kernels.dot", "core.spectral_norm"):
        out[f"{layer}.busy_s"] = mean(busy.get(layer, 0.0))
        out[f"{layer}.calls"] = mean(calls.get(layer, 0))
    for layer in ("localqr.local_qr", "steps.block_cgs2_step"):
        out[f"{layer}.busy_s"] = mean(busy.get(layer, 0.0))
        out[f"{layer}.self_s"] = mean(self_s.get(layer, 0.0))
        out[f"{layer}.calls"] = mean(calls.get(layer, 0))
    out["steps.pass1.busy_s"] = mean(pass_busy[0])
    out["steps.pass2.busy_s"] = mean(pass_busy[1])
    out["steps.cgs2_step.busy_s"] = mean(busy.get("steps.cgs2_step", 0.0))
    out["drivers.factor.busy_s"] = mean(factor)
    out["drivers.self_s"] = mean(self_s.get(FACTOR, 0.0))
    out["drivers.audit.busy_s"] = mean(audit)
    out["drivers.audit.share"] = audit / factor if factor > 0.0 else 0.0
    out["core.upper_triangular_inverse.busy_s"] = mean(busy.get("core.upper_triangular_inverse", 0.0))
    out["core.relative_residual.busy_s"] = mean(busy.get("core.relative_residual", 0.0))
    out["generators.busy_s"] = mean(busy.get("generators.gen_svd_spectrum", 0.0))
    out["bounds.check_assumptions.busy_s"] = mean(busy.get("bounds.check_assumptions", 0.0))
    out["bounds.blocks_checked"] = mean(checked)
    out["bounds.blocks_passed_frac"] = passed / checked if checked else 0.0
    out["harness.unattributed_s"] = mean(self_s.get(TRIAL, 0.0))
    traced_spans = len(spans) - calls.get(TRIAL, 0)
    out["tracing.overhead_frac"] = traced_spans * span_cost / trial_time if trial_time else 0.0
    return out
