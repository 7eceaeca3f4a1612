"""Acceptance suite: one test per criterion, at the stated tolerances.

The shared corpus is 200 seeded trials over m in {50, 100, 200, 500},
block widths in {1, 4, 8, 16}, and a geometric ladder of condition numbers
from 1 to 1e12.  Each test prints a single pass line (visible with -s).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import blockgs as bg
from blockgs.cli import main as cli_main
from conftest import degraded_cascade_matrix

EPS = bg.MACHINE_UNIT

_M_CHOICES = (50, 100, 200, 500)
_P_CHOICES = (1, 4, 8, 16)
_KAPPA_LADDER = tuple(10.0 ** (2 * j) for j in range(7))
_TRIALS = 200


@dataclass(frozen=True)
class TrialResult:
    m: int
    n: int
    p: int
    blocks: int
    t_last: int
    kappa: float
    all_checks_passed: bool
    defect: float
    resid: float
    norm_a: float
    worst_prefix_margin: float  # max over k of resid_k / (bound_k * |A_k|)
    worst_defect_margin: float  # max over k of defect_k / (10 eps f1(m, (k-1) p, p))
    householder_resid: float


def _run_trial(i: int) -> TrialResult:
    m = _M_CHOICES[i % 4]
    p = _P_CHOICES[(i // 4) % 4]
    kappa = _KAPPA_LADDER[(i // 16) % 7]
    n = int(np.random.default_rng(1000 + i).integers(p + 1, m // 2 + 1))
    a = bg.gen_svd_spectrum(m, n, kappa, seed=i)
    part = bg.BlockPartition.uniform(n, p)

    trace = bg.bcgs2(a, part)
    ctx = bg.BoundContext(m=m, p=p, n=n)
    verdicts = bg.check_assumptions(trace, ctx)
    all_passed = all(v.either_passed for v in verdicts)

    norm_a = bg.spectral_norm(a)
    resid = bg.relative_residual(a, trace.factorization)

    # With X = Q_X R_X, the prefix X[:, :hi] = Q_X[:, :hi] R_X[:hi, :hi], so
    # its 2-norm is that of the hi-by-hi leading triangle: one QR per matrix
    # replaces two m-by-hi SVDs per block.
    r_e = np.linalg.qr(a - bg.matmul(trace.q, trace.r), mode="r")
    r_a = np.linalg.qr(a, mode="r")
    # Likewise the defect of Q[:, :hi] is the 2-norm of the leading block of
    # I - Q^T Q, one Gram matrix per trial; the block is symmetric, so its
    # 2-norm is its largest eigenvalue magnitude.
    i_minus_g = np.eye(n) - trace.q.T @ trace.q
    worst_margin = 0.0
    worst_defect_margin = 0.0
    t = 0
    for rec in trace.per_block:
        hi = t + rec.width
        prefix_resid = float(np.linalg.svd(r_e[:hi, :hi], compute_uv=False)[0])
        prefix_norm = float(np.linalg.svd(r_a[:hi, :hi], compute_uv=False)[0])
        bound = 10.0 * EPS * bg.f2(m, t, p) * prefix_norm
        worst_margin = max(worst_margin, prefix_resid / bound)
        prefix_defect = float(np.abs(np.linalg.eigvalsh(i_minus_g[:hi, :hi])).max())
        defect_bound = 10.0 * EPS * bg.f1(m, t, p)
        worst_defect_margin = max(worst_defect_margin, prefix_defect / defect_bound)
        t = hi

    hh = bg.local_qr(a)
    hh_resid = bg.relative_residual(a, bg.QRFactorization(hh.q, hh.r))

    return TrialResult(
        m=m,
        n=n,
        p=p,
        blocks=part.count,
        t_last=(part.count - 1) * p,
        kappa=kappa,
        all_checks_passed=all_passed,
        defect=trace.per_block[-1].defect,
        resid=resid,
        norm_a=norm_a,
        worst_prefix_margin=worst_margin,
        worst_defect_margin=worst_defect_margin,
        householder_resid=hh_resid,
    )


@pytest.fixture(scope="session")
def corpus():
    return [_run_trial(i) for i in range(_TRIALS)]


def test_criterion_1_orthogonality_contract(corpus):
    passing = [t for t in corpus if t.all_checks_passed]
    # The corpus is the well-behaved regime; the conditional must not be vacuous.
    assert len(passing) >= 100, f"only {len(passing)} of {_TRIALS} trials passed checks"
    for t in passing:
        bound = 10.0 * EPS * bg.f1(t.m, t.t_last, t.p)
        assert t.defect <= bound, (
            f"defect {t.defect:.3e} > bound {bound:.3e} at m={t.m} n={t.n} p={t.p} "
            f"kappa={t.kappa:g}"
        )
        assert t.defect <= 1e-12, f"defect {t.defect:.3e} above absolute floor 1e-12"
    print(
        f"\n[acceptance] criterion 1 (orthogonality contract): PASS "
        f"({len(passing)}/{_TRIALS} trials with all checks passing)"
    )


def test_orthogonality_contract_at_every_block(corpus):
    # The paper bounds the defect of Q_k after every block k, not only the last.
    passing = [t for t in corpus if t.all_checks_passed]
    worst = max(passing, key=lambda t: t.worst_defect_margin)
    assert worst.worst_defect_margin <= 1.0, (
        f"prefix defect exceeded its bound (margin {worst.worst_defect_margin:.3f}) "
        f"at m={worst.m} n={worst.n} p={worst.p} kappa={worst.kappa:g}"
    )
    print(
        f"\n[acceptance] per-block orthogonality contract: PASS "
        f"({len(passing)} trials, worst margin {worst.worst_defect_margin:.3e})"
    )


def test_criterion_2_residual_contract(corpus):
    for t in corpus:
        bound = 10.0 * EPS * bg.f2(t.m, t.t_last, t.p)
        assert t.resid <= bound, (
            f"relative residual {t.resid:.3e} > bound {bound:.3e} at "
            f"m={t.m} n={t.n} p={t.p} kappa={t.kappa:g}"
        )
        assert t.worst_prefix_margin <= 1.0, (
            f"prefix residual exceeded its bound (margin {t.worst_prefix_margin:.3f}) "
            f"at m={t.m} n={t.n} p={t.p} kappa={t.kappa:g}"
        )
    print(f"\n[acceptance] criterion 2 (residual contract): PASS ({_TRIALS} trials)")


def test_criterion_3_reorthogonalization_separation():
    lauchli = bg.gen_lauchli(20, 1e-8)
    part20 = bg.BlockPartition.uniform(20, 4)
    tight = bg.bcgs2(lauchli, part20).per_block[-1].defect
    assert bg.cgs(lauchli).per_block[-1].defect >= 1e3 * tight
    assert bg.bcgs(lauchli, part20).per_block[-1].defect >= 1e3 * tight

    graded = bg.gen_svd_spectrum(100, 20, kappa=1e8, seed=101)
    tight_graded = bg.bcgs2(graded, part20).per_block[-1].defect
    assert bg.cgs(graded).per_block[-1].defect >= 1e3 * tight_graded
    assert bg.bcgs(graded, part20).per_block[-1].defect >= 1e3 * tight_graded

    harder = bg.gen_svd_spectrum(100, 20, kappa=1e10, seed=103)
    mgs_defect = bg.mgs(harder).per_block[-1].defect
    bcgs2_defect = bg.bcgs2(harder, part20).per_block[-1].defect
    assert mgs_defect >= 10.0 * bcgs2_defect
    print("\n[acceptance] criterion 3 (reorthogonalization separation): PASS")


def test_criterion_4_specialization_identity():
    rng = np.random.default_rng(4242)
    for trial in range(50):
        m = int(rng.integers(5, 41))
        n = int(rng.integers(1, m + 1))
        kappa = float(10.0 ** rng.integers(0, 7))
        a = bg.gen_svd_spectrum(m, n, kappa, seed=5000 + trial)
        scalar = bg.cgs2(a)
        block = bg.bcgs2(a, bg.BlockPartition.ones(n))
        assert block.q.tobytes() == scalar.q.tobytes(), f"q differs on trial {trial}"
        assert block.r.tobytes() == scalar.r.tobytes(), f"r differs on trial {trial}"
    print("\n[acceptance] criterion 4 (width-1 specialization, bitwise): PASS")


def test_criterion_5_bound_formula_identities():
    # gamma_k * f1 recovers lf for every k up to 10^4.
    p = 1
    m = 10**4 + 1
    for k in range(1, 10**4 + 1):
        t = (k - 1) * p
        assert bg.gamma_k(k) * bg.f1(m, t, p) == pytest.approx(
            bg.lf(m, t, p), rel=1e-14
        )
    # Width-1 residual growth is exact on integer-valued k^{3/2}.
    for m_ in (30, 100, 451):
        for k in (0, 1, 4, 9, 16, 25):
            assert bg.f_resid(m_, k, 1) == 2.0 * m_ + 2.0 * k**1.5 + 13.0
    # The induction constant.
    assert abs(bg.alpha() - math.sqrt(7.0 + 4.0 * math.sqrt(2.0))) <= 1e-15
    # One induction step never exceeds the closed-form growth function.
    m_grid = 2000
    for p_ in (1, 2, 4, 8, 16, 32):
        for k in range(1, 51):
            t = k * p_
            assert bg.orthogonality_step_constant(m_grid, t, p_) <= bg.f1(m_grid, t, p_)
    print("\n[acceptance] criterion 5 (bound-formula identities): PASS")


def test_criterion_6_assumption_checker_efficacy(tmp_path):
    a, part, first_bad = degraded_cascade_matrix()
    mtx = tmp_path / "degraded.mtx"
    bg.write_matrix_market(mtx, a)
    base = [
        "--method", "bcgs2", "--gen", "file", "--input", str(mtx),
        "--block", str(part.max_width),
    ]

    code = cli_main(base + ["--policy", "strict", "--csv", str(tmp_path / "strict.csv")])
    assert code == 2, f"strict policy returned {code}, expected 2"

    warn_csv = tmp_path / "warn.csv"
    code = cli_main(base + ["--policy", "warn", "--csv", str(warn_csv)])
    assert code == 0
    row = bg.parse_csv(warn_csv)[0]
    assert not row.assumptions_passed
    assert row.defect > 1e-10, f"defect {row.defect:.3e} did not degrade past 1e-10"

    # The failure is attributed to the degraded blocks, not the clean ones.
    trace = bg.bcgs2(a, part)
    ctx = bg.BoundContext(m=a.shape[0], p=part.max_width, n=a.shape[1])
    verdicts = bg.check_assumptions(trace, ctx)
    assert all(not v.check_a_passed for v in verdicts if v.block_index >= first_bad)
    assert all(v.either_passed for v in verdicts if v.block_index < first_bad)
    print("\n[acceptance] criterion 6 (assumption checker efficacy): PASS")


def test_criterion_7_oracle_equivalence(corpus):
    for t in corpus:
        assert t.resid <= 1e-13, (
            f"reconstruction {t.resid:.3e} above 1e-13 at m={t.m} n={t.n} p={t.p}"
        )
        floor = max(t.householder_resid, EPS)
        assert t.resid <= 100.0 * floor, (
            f"reconstruction {t.resid:.3e} not within factor 100 of the "
            f"Householder reference {t.householder_resid:.3e}"
        )
    print(f"\n[acceptance] criterion 7 (oracle equivalence): PASS ({_TRIALS} trials)")
