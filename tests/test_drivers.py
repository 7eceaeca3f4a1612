"""Driver tests: full factorizations, traces, induction contracts, baselines."""

import dataclasses

import numpy as np
import pytest

import blockgs as bg
from blockgs.errors import GramSchmidtBreakdownError, RankDeficientError


def _prefix_residuals(a, trace):
    """Residual norm of every leading block prefix, from one full residual."""
    e = a - bg.matmul(trace.q, trace.r)
    out = []
    t = 0
    for rec in trace.per_block:
        t += rec.width
        out.append(bg.spectral_norm(e[:, :t]))
    return out


class TestCgs2:
    def test_identity(self):
        tr = bg.cgs2(np.eye(3))
        assert np.array_equal(tr.q, np.eye(3))
        assert np.array_equal(tr.r, np.eye(3))

    def test_already_triangular(self):
        a = np.asfortranarray([[1.0, 1.0], [0.0, 1.0]])
        tr = bg.cgs2(a)
        assert np.array_equal(tr.q, np.eye(2))
        assert np.array_equal(tr.r, a)

    def test_ill_conditioned_contracts(self):
        a = bg.gen_svd_spectrum(100, 30, kappa=1e10, seed=12)
        tr = bg.cgs2(a)
        assert tr.per_block[-1].defect <= 1e-13
        assert bg.relative_residual(a, tr.factorization) <= 1e-13

    def test_trace_shape(self):
        a = bg.gen_svd_spectrum(20, 7, kappa=10, seed=0)
        tr = bg.cgs2(a)
        assert len(tr.per_block) == 7
        assert [rec.t_prev for rec in tr.per_block] == list(range(7))
        assert tr.per_block[0].r2_inv_norm is None
        assert all(rec.r2_inv_norm is not None for rec in tr.per_block[1:])

    def test_breakdown_reports_column(self):
        a = np.asfortranarray(np.eye(4)[:, :3])
        a[:, 2] = 0.0
        with pytest.raises(GramSchmidtBreakdownError, match="column 3"):
            bg.cgs2(a)


class TestBcgs2:
    def test_identity_two_blocks(self):
        tr = bg.bcgs2(np.eye(4), bg.BlockPartition((2, 2)))
        assert np.array_equal(tr.q, np.eye(4))
        assert np.array_equal(tr.r, np.eye(4))

    def test_single_block_equals_local_qr_bitwise(self, rng):
        a = rng.standard_normal((15, 6))
        tr = bg.bcgs2(a, bg.BlockPartition.single(6))
        res = bg.local_qr(a)
        assert tr.q.tobytes() == res.q.tobytes()
        assert tr.r.tobytes() == res.r.tobytes()

    def test_large_ill_conditioned_contracts(self):
        a = bg.gen_svd_spectrum(200, 64, kappa=1e12, seed=5)
        part = bg.BlockPartition.uniform(64, 8)
        tr = bg.bcgs2(a, part)
        assert tr.per_block[-1].defect <= 1e-13
        assert bg.relative_residual(a, tr.factorization) <= 1e-13
        ctx = bg.BoundContext(m=200, p=8, n=64)
        assert all(v.either_passed for v in bg.check_assumptions(tr, ctx))

    def test_partition_must_cover_matrix(self, rng):
        with pytest.raises(ValueError):
            bg.bcgs2(rng.standard_normal((8, 5)), bg.BlockPartition((2, 2)))

    def test_breakdown_reports_block(self, rng):
        col = rng.standard_normal((10, 1))
        a = np.asfortranarray(
            np.hstack([np.linalg.qr(rng.standard_normal((10, 4)))[0], col, col])
        )
        with pytest.raises(RankDeficientError, match="block 2"):
            bg.bcgs2(a, bg.BlockPartition((4, 2)))

    def test_residual_induction_contract(self):
        # Prefix residuals obey the accumulated growth bound at every block.
        a = bg.gen_svd_spectrum(80, 32, kappa=1e8, seed=9)
        part = bg.BlockPartition.uniform(32, 8)
        tr = bg.bcgs2(a, part)
        residuals = _prefix_residuals(a, tr)
        t = 0
        for k, rec in enumerate(tr.per_block, start=1):
            prefix_norm = bg.spectral_norm(a[:, : t + rec.width])
            bound = 10.0 * bg.MACHINE_UNIT * bg.f2(80, t, 8, k) * prefix_norm
            assert residuals[k - 1] <= bound
            t += rec.width

    def test_defect_induction_contract(self):
        a = bg.gen_svd_spectrum(80, 32, kappa=1e8, seed=9)
        part = bg.BlockPartition.uniform(32, 8)
        tr = bg.bcgs2(a, part)
        ctx = bg.BoundContext(m=80, p=8, n=32)
        assert all(v.either_passed for v in bg.check_assumptions(tr, ctx))
        for rec in tr.per_block:
            assert rec.defect <= 10.0 * bg.MACHINE_UNIT * bg.f1(80, rec.t_prev, 8)

    def test_partition_invariance_of_contracts(self):
        a = bg.gen_svd_spectrum(64, 32, kappa=1e6, seed=3)
        for width in (4, 8):
            part = bg.BlockPartition.uniform(32, width)
            tr = bg.bcgs2(a, part)
            assert tr.per_block[-1].defect <= 1e-13
            assert bg.relative_residual(a, tr.factorization) <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_in_first_block_fails_fast(self, bad):
        a = bg.gen_svd_spectrum(50, 10, kappa=10.0, seed=0)
        a[3, 1] = bad
        with pytest.raises(bg.SpectralNormError, match="input is not finite"):
            bg.bcgs2(a, bg.BlockPartition.uniform(10, 4))

    def test_all_ones_partition_matches_cgs2_bitwise(self):
        a = bg.gen_svd_spectrum(40, 12, kappa=1e6, seed=8)
        tr_block = bg.bcgs2(a, bg.BlockPartition.ones(12))
        tr_scalar = bg.cgs2(a)
        assert tr_block.q.tobytes() == tr_scalar.q.tobytes()
        assert tr_block.r.tobytes() == tr_scalar.r.tobytes()


class TestBaselines:
    def test_identity_all_methods(self):
        eye = np.eye(3)
        for tr in (bg.cgs(eye), bg.mgs(eye), bg.bcgs(eye, bg.BlockPartition((2, 1)))):
            assert np.array_equal(tr.q, eye)
            assert np.array_equal(tr.r, eye)

    def test_orthonormal_input_is_fixed_point(self):
        q0, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((20, 5)))
        a = np.asfortranarray(q0)
        for tr in (
            bg.cgs(a),
            bg.mgs(a),
            bg.cgs2(a),
            bg.bcgs(a, bg.BlockPartition.uniform(5, 2)),
            bg.bcgs2(a, bg.BlockPartition.uniform(5, 2)),
        ):
            assert tr.per_block[-1].defect <= 1e-14

    def test_one_pass_cgs_loses_orthogonality(self):
        a = bg.gen_svd_spectrum(100, 20, kappa=1e8, seed=2)
        loose = bg.cgs(a).per_block[-1].defect
        tight = bg.bcgs2(a, bg.BlockPartition.uniform(20, 4)).per_block[-1].defect
        assert loose >= 1e3 * tight

    def test_mgs_beats_cgs_but_not_bcgs2(self):
        a = bg.gen_svd_spectrum(100, 20, kappa=1e10, seed=6)
        mgs_defect = bg.mgs(a).per_block[-1].defect
        bcgs2_defect = bg.bcgs2(a, bg.BlockPartition.uniform(20, 4)).per_block[-1].defect
        assert mgs_defect >= 10.0 * bcgs2_defect

    def test_bcgs_trace_has_no_second_pass_audit(self):
        a = bg.gen_svd_spectrum(30, 8, kappa=100, seed=4)
        tr = bg.bcgs(a, bg.BlockPartition.uniform(8, 4))
        assert all(rec.r2_inv_norm is None for rec in tr.per_block)

    def test_checker_rejects_one_pass_trace(self):
        a = bg.gen_svd_spectrum(30, 8, kappa=100, seed=4)
        tr = bg.bcgs(a, bg.BlockPartition.uniform(8, 4))
        with pytest.raises(ValueError, match="audit"):
            bg.check_assumptions(tr, bg.BoundContext(m=30, p=4, n=8))


class TestFactorizationTrace:
    def test_rejects_inconsistent_records(self):
        a = bg.gen_svd_spectrum(10, 4, kappa=10, seed=1)
        tr = bg.cgs2(a)
        bad = (tr.per_block[0], tr.per_block[2], tr.per_block[1], tr.per_block[3])
        with pytest.raises(ValueError, match="prior columns"):
            bg.FactorizationTrace(tr.factorization, bad)

    def test_wide_input_rejected(self, rng):
        with pytest.raises(ValueError):
            bg.cgs2(rng.standard_normal((3, 5)))


def _assert_running_defect_is_fresh(tr):
    # The bordered Gram update must reproduce the from-scratch defect of
    # every prefix byte for byte, both through the one-argument call and
    # spelled out as |I - Q^T Q|.
    hi = 0
    for rec in tr.per_block:
        hi += rec.width
        q = tr.q[:, :hi]
        spelled_out = bg.spectral_norm(np.eye(hi) - bg.matmul(q.T, q))
        for fresh in (bg.orthogonality_defect(q), spelled_out):
            assert np.float64(rec.defect).tobytes() == np.float64(fresh).tobytes()


_GRADED = bg.gen_svd_spectrum(60, 10, kappa=1e8, seed=21)
_ORTHONORMAL = np.asfortranarray(
    np.linalg.qr(np.random.default_rng(22).standard_normal((30, 10)))[0]
)
# Exact-zero Gram entries (orthonormal, identity) make the sign of zero in
# I - G matter.
_AUDIT_INPUTS = [_GRADED, _ORTHONORMAL, np.eye(10)]
_AUDIT_IDS = ["graded", "orthonormal", "identity"]


@pytest.mark.parametrize("a", _AUDIT_INPUTS, ids=_AUDIT_IDS)
@pytest.mark.parametrize("method", ["cgs", "cgs2", "mgs"])
def test_running_defect_matches_fresh_defect_columnwise(a, method):
    _assert_running_defect_is_fresh(getattr(bg, method)(a))


@pytest.mark.parametrize("a", _AUDIT_INPUTS, ids=_AUDIT_IDS)
@pytest.mark.parametrize(
    "part",
    [
        bg.BlockPartition.uniform(10, 4),
        bg.BlockPartition((3, 5, 2)),
        bg.BlockPartition.ones(10),
        bg.BlockPartition.single(10),
    ],
    ids=["uniform", "uneven", "ones", "single"],
)
@pytest.mark.parametrize("method", ["bcgs", "bcgs2"])
def test_running_defect_matches_fresh_defect_blockwise(a, part, method):
    _assert_running_defect_is_fresh(getattr(bg, method)(a, part))


def _assert_traces_equal_bitwise(tr, other):
    assert tr.q.tobytes() == other.q.tobytes()
    assert tr.r.tobytes() == other.r.tobytes()
    assert len(tr.per_block) == len(other.per_block)
    for rec, rec_other in zip(tr.per_block, other.per_block):
        for field in dataclasses.fields(rec):
            x, y = getattr(rec, field.name), getattr(rec_other, field.name)
            if x is None or y is None:
                assert x is y, field.name
            else:
                assert np.float64(x).tobytes() == np.float64(y).tobytes(), field.name


@pytest.mark.parametrize(
    "a", _AUDIT_INPUTS + [bg.gen_lauchli(8, 1e-7)], ids=_AUDIT_IDS + ["lauchli"]
)
@pytest.mark.parametrize("column, block", [("cgs", "bcgs"), ("cgs2", "bcgs2")])
def test_column_driver_is_block_driver_with_ones_partition(a, column, block):
    # Records included: width-1 blocks take the column norm, not an SVD.
    ones = bg.BlockPartition.ones(a.shape[1])
    _assert_traces_equal_bitwise(getattr(bg, column)(a), getattr(bg, block)(a, ones))


@pytest.mark.parametrize("method", ["cgs", "cgs2", "mgs"])
def test_zero_first_column_is_rank_deficient(method):
    a = np.asfortranarray(np.eye(4)[:, :3])
    a[:, 0] = 0.0
    with pytest.raises(RankDeficientError, match="column 1: column norm 0"):
        getattr(bg, method)(a)


@pytest.mark.parametrize("method", ["cgs", "mgs"])
def test_zero_later_column_is_rank_deficient(method):
    a = np.asfortranarray(np.eye(4)[:, :3])
    a[:, 2] = 0.0
    with pytest.raises(RankDeficientError, match="column 3: column norm 0"):
        getattr(bg, method)(a)


@pytest.mark.parametrize("method", ["cgs", "cgs2", "mgs", "bcgs", "bcgs2"])
def test_non_finite_entry_in_later_block_fails_before_arithmetic(method):
    # Under errstate(all="raise"), any arithmetic on the inf would raise
    # FloatingPointError before the finiteness check.
    a = bg.gen_svd_spectrum(50, 10, kappa=10.0, seed=0)
    a[7, 8] = np.inf
    blocks = (bg.BlockPartition.uniform(10, 4),) if method.startswith("b") else ()
    with np.errstate(all="raise"):
        with pytest.raises(bg.SpectralNormError, match=r"not finite: entry \[7, 8\] is inf"):
            getattr(bg, method)(a, *blocks)
