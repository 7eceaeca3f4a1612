"""Driver tests: full factorizations, traces, induction contracts, baselines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import blockgs as bg
from blockgs import drivers, kernels
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
            bound = 10.0 * bg.MACHINE_UNIT * bg.f2(80, t, 8) * prefix_norm
            assert residuals[k - 1] <= bound
            t += rec.width

    def test_defect_induction_contract(self):
        a = bg.gen_svd_spectrum(80, 32, kappa=1e8, seed=9)
        part = bg.BlockPartition.uniform(32, 8)
        tr = bg.bcgs2(a, part)
        ctx = bg.BoundContext(m=80, p=8, n=32)
        assert all(v.either_passed for v in bg.check_assumptions(tr, ctx))
        for rec in tr.per_block:
            defect = bg.orthogonality_defect(tr.q[:, : rec.t_prev + rec.width])
            assert defect <= 10.0 * bg.MACHINE_UNIT * bg.f1(80, rec.t_prev, 8)

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


def _assert_last_defect_is_fresh(tr):
    # Only the last record holds a defect: that of the finished Q, byte for
    # byte, both through orthogonality_defect and spelled out as |I - Q^T Q|.
    *earlier, last = tr.per_block
    assert all(rec.defect is None for rec in earlier)
    n = tr.q.shape[1]
    spelled_out = bg.spectral_norm(np.eye(n) - bg.matmul(tr.q.T, tr.q))
    for fresh in (bg.orthogonality_defect(tr.q), spelled_out):
        assert np.float64(last.defect).tobytes() == np.float64(fresh).tobytes()


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
    _assert_last_defect_is_fresh(getattr(bg, method)(a))


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
    _assert_last_defect_is_fresh(getattr(bg, method)(a, part))


@pytest.mark.parametrize("method", ["cgs", "cgs2", "mgs", "bcgs", "bcgs2"])
def test_defect_is_taken_once_per_factorization(monkeypatch, method):
    calls = []

    def counting(q):
        calls.append(q.shape)
        return bg.orthogonality_defect(q)

    monkeypatch.setattr(drivers, "orthogonality_defect", counting)
    blocks = (bg.BlockPartition((3, 5, 2)),) if method.startswith("b") else ()
    getattr(bg, method)(_GRADED, *blocks)
    assert calls == [(60, 10)]


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


def _mgs_left_looking(a):
    """The left-looking modified Gram-Schmidt loop: the oracle for ``mgs``.

    Column k is projected against q[:, 0], ..., q[:, k-2] in turn, each
    coefficient a left-to-right sum, then normalized.
    """
    a = drivers._validate_input(a)
    m, n = a.shape
    q = np.zeros((m, n), order="F")
    r = np.zeros((n, n), order="F")
    records = []
    for k in range(1, n + 1):
        v = np.array(a[:, k - 1 : k], order="F", copy=True)
        for i in range(k - 1):
            rik = float(np.add.accumulate(q[:, i] * v[:, 0])[-1])
            r[i, k - 1] = rik
            v -= q[:, i : i + 1] * rik
        try:
            res = bg.local_qr(v)
        except RankDeficientError as exc:
            raise drivers._wrap_breakdown(exc, "column", k) from exc
        q[:, k - 1 : k] = res.q
        r[k - 1, k - 1] = res.r[0, 0]
        records.append(
            drivers.BlockRecord(
                index=k,
                t_prev=k - 1,
                width=1,
                block_norm=kernels.vec_norm(a[:, k - 1]),
                rkk_inv_norm=1.0 / res.r[0, 0],
                r2_inv_norm=None,
                defect=bg.orthogonality_defect(q) if k == n else None,
            )
        )
    return bg.FactorizationTrace(bg.QRFactorization(q, r), tuple(records))


def _mgs_inputs():
    rng = np.random.default_rng(30)
    cases = {
        "9x1": rng.standard_normal((9, 1)),
        "40x40": rng.standard_normal((40, 40)),
        "60x10": rng.standard_normal((60, 10)),
        "2000x65": bg.gen_svd_spectrum(2000, 65, kappa=1e6, seed=31),
        "integer": rng.integers(-9, 10, (50, 20)).astype(float),
        "eye": np.eye(30, 12),
    }
    for n in (50, 65, 80):
        for kappa in (1.0, 1e4, 1e8, 1e12):
            cases[f"200x{n}-kappa{kappa:g}"] = bg.gen_svd_spectrum(200, n, kappa=kappa, seed=n)
    return cases


_MGS_INPUTS = _mgs_inputs()


@pytest.mark.parametrize("a", _MGS_INPUTS.values(), ids=_MGS_INPUTS.keys())
def test_mgs_is_the_left_looking_loop_bitwise(a):
    _assert_traces_equal_bitwise(bg.mgs(a), _mgs_left_looking(a))


# Small integers, both signed zeros, and integers scaled by 2^±40: exact
# cancellations make zero and tiny columns, so both paths of mgs are drawn.
_ENTRIES = st.one_of(
    st.integers(-8, 8).map(float),
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda k, e: k * 2.0**e, st.integers(-8, 8), st.sampled_from([-40, 40])),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _tall_matrices(draw):
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, min(m, 12)))
    return draw(hnp.arrays(np.float64, (m, n), elements=_ENTRIES))


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(_tall_matrices())
def test_mgs_is_the_left_looking_loop_property(a):
    try:
        expected = _mgs_left_looking(a)
    except RankDeficientError as exc:
        with pytest.raises(RankDeficientError) as info:
            bg.mgs(a)
        assert (str(info.value), info.value.index) == (str(exc), exc.index)
        assert np.float64(info.value.magnitude).tobytes() == np.float64(exc.magnitude).tobytes()
    else:
        _assert_traces_equal_bitwise(bg.mgs(a), expected)


@pytest.mark.parametrize("column", [0, 6])
def test_mgs_zero_column_fails_with_the_left_looking_error(column):
    # Later columns are already updated when an earlier one fails: the
    # failure must be the same error, with no warning on the way.
    a = np.eye(30, 12)
    a[:, column] = 0.0
    message = f"column {column + 1}: column norm 0 fails the rank test"
    with pytest.raises(RankDeficientError) as expected:
        _mgs_left_looking(a)
    assert str(expected.value) == message
    with np.errstate(all="raise"):
        with pytest.raises(RankDeficientError) as info:
            bg.mgs(a)
    assert str(info.value) == message
    assert (info.value.index, info.value.magnitude) == (0, 0.0)


def test_mgs_earlier_failure_wins_over_a_later_overflow():
    # Column 3's projection overflows, which the left-looking loop never
    # computes: column 2 fails first.  The right-looking loop overflows
    # (and warns) on the way, then raises the same error.
    a = np.ones((4, 3))
    a[:, 1] = 0.0
    a[:, 2] = 1e308
    with pytest.raises(RankDeficientError) as expected:
        _mgs_left_looking(a)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RankDeficientError) as info:
            bg.mgs(a)
    assert str(info.value) == str(expected.value) == (
        "column 2: column norm 0 fails the rank test"
    )


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
