"""Harness tests: trial runs, policies, CSV/plot emission, parallelism."""

import dataclasses
import math

import numpy as np
import pytest

import blockgs as bg
from blockgs import harness
from blockgs.bounds import f1, f2
from blockgs.core import MACHINE_UNIT
from blockgs.errors import AssumptionFailureError
from blockgs.harness import _CSV_HEADER


def _config(**overrides):
    base = dict(
        method="bcgs2",
        m=40,
        n=16,
        blocks=bg.BlockPartition.uniform(16, 4),
        generator="svd",
        kappa=1e6,
        seed=7,
        policy="warn",
        trials=3,
    )
    base.update(overrides)
    return bg.ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_block_width_for_column_method(self):
        with pytest.raises(ValueError, match="does not take"):
            _config(method="cgs", blocks=bg.BlockPartition.uniform(16, 4))

    def test_requires_block_for_block_method(self):
        with pytest.raises(ValueError, match="needs --block"):
            _config(blocks=None)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            _config(m=10, n=20)
        with pytest.raises(ValueError):
            _config(kappa=0.1)
        with pytest.raises(ValueError):
            _config(trials=0)

    def test_rejects_non_finite_kappa(self):
        with pytest.raises(ValueError, match="kappa must be >= 1, got nan"):
            _config(kappa=float("nan"))
        with pytest.raises(ValueError, match="lauchli generator needs a finite kappa"):
            _config(method="cgs", blocks=None, generator="lauchli",
                    m=6, n=5, kappa=float("inf"))
        # The svd generator takes an infinite kappa as before.
        assert _config(kappa=float("inf")).kappa == float("inf")

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            _config(seed=-1)

    def test_lauchli_needs_its_own_row_count(self):
        # gen_lauchli builds an (n+1) x n matrix whatever m says, so any other
        # m is refused here, not inside run().
        with pytest.raises(ValueError, match=r"needs m = n \+ 1 = 41, got m=100"):
            _config(m=100, n=40, blocks=bg.BlockPartition.uniform(40, 16),
                    generator="lauchli", kappa=1e4)
        # With its true m = 41 the partition's room check applies: 3 * 16 > 41.
        with pytest.raises(ValueError, match=r"m >= 3 \* 16 = 48, got m=41"):
            _config(m=41, n=40, blocks=bg.BlockPartition.uniform(40, 16),
                    generator="lauchli", kappa=1e4)
        rows = bg.run(_config(m=41, n=40, blocks=bg.BlockPartition.uniform(40, 8),
                              generator="lauchli", kappa=1e4, trials=1))
        assert (rows[0].m, rows[0].n, rows[0].p) == (41, 40, 8)

    def test_rejects_partition_wider_than_stability_checks_allow(self):
        # Block k is checked at t = (k - 1) * 16, so 7 blocks need m >= 112.
        with pytest.raises(
            ValueError,
            match=r"partition \(16, 16, 16, 16, 16, 16, 4\).*m >= 7 \* 16 = 112, got m=100",
        ):
            _config(m=100, n=100, blocks=bg.BlockPartition.uniform(100, 16))
        with pytest.raises(ValueError, match=r"\(1, 1, 1, 1, 1, 1, 2, 2\).*got m=12"):
            _config(m=12, n=10, blocks=bg.BlockPartition((1, 1, 1, 1, 1, 1, 2, 2)))
        # bcgs has no stability checks and factors the same matrices.
        assert len(bg.run(_config(method="bcgs", m=100, n=100,
                                  blocks=bg.BlockPartition.uniform(100, 16), trials=1))) == 1

    def test_partition_at_the_stability_check_limit_runs(self):
        # 6 blocks of width up to 2 need exactly m = 12.
        cfg = _config(m=12, n=10, blocks=bg.BlockPartition((1, 1, 2, 2, 2, 2)),
                      kappa=10.0, trials=1)
        (row,) = bg.run(cfg)
        assert (row.m, row.n, row.p) == (12, 10, 2)

    def test_explicit_partition(self):
        cfg = _config(blocks=bg.BlockPartition((8, 4, 4)))
        assert cfg.partition().widths == (8, 4, 4)

    def test_rejects_a_partition_that_is_not_a_block_partition(self):
        # The tuple is not coerced: BlockPartition((8, 4, 4)) is the one form.
        with pytest.raises(TypeError, match=r"must be a BlockPartition, got tuple \(8, 4, 4\)"):
            _config(blocks=(8, 4, 4))
        with pytest.raises(TypeError, match="got list"):
            _config(method="cgs", blocks=[1] * 16)

    def test_partition_must_cover(self):
        with pytest.raises(ValueError, match="widths sum to 12, but the matrix has 16"):
            _config(blocks=bg.BlockPartition((8, 4)))


class TestRun:
    def test_rows_in_trial_order_with_measurements(self):
        rows = bg.run(_config())
        assert len(rows) == 3
        for row in rows:
            assert row.method == "bcgs2"
            assert (row.m, row.n, row.p) == (40, 16, 4)
            assert 0.0 <= row.defect < 1e-12
            assert 0.0 <= row.rel_residual < 1e-12
            assert row.assumptions_passed
            assert np.isfinite(row.kappa_measured)
            assert row.wall_time_seconds >= 0.0

    def test_contracts_hold_on_passing_rows(self):
        bg.verify_report_contracts(bg.run(_config(trials=5, kappa=1e10)))

    def test_every_method_runs(self):
        for method in ("cgs", "mgs", "cgs2", "householder"):
            rows = bg.run(_config(method=method, blocks=None, trials=1))
            assert len(rows) == 1 and rows[0].method == method
        rows = bg.run(_config(method="bcgs", trials=1))
        assert rows[0].method == "bcgs"

    def test_deterministic_given_seed(self):
        r1 = bg.run(_config())
        r2 = bg.run(_config())
        for a, b in zip(r1, r2):
            assert (a.kappa_measured, a.defect, a.rel_residual) == (
                b.kappa_measured,
                b.defect,
                b.rel_residual,
            )

    def test_lauchli_generator_through_harness(self):
        cfg = bg.ExperimentConfig(
            method="cgs", m=21, n=20, generator="lauchli", kappa=1e8, seed=0,
            policy="warn", trials=1,
        )
        rows = bg.run(cfg)
        assert rows[0].defect > 1e-2

    def test_file_shape_must_match_config(self, tmp_path):
        path = tmp_path / "a.mtx"
        bg.write_matrix_market(path, np.ones((20, 6)))
        cfg = bg.ExperimentConfig(method="householder", m=30, n=10,
                                  generator="file", input_path=str(path))
        with pytest.raises(ValueError, match="is 20x6, but the configuration has m=30, n=10"):
            bg.run(cfg)


def _untimed(rows):
    return [dataclasses.replace(row, wall_time_seconds=0.0) for row in rows]


class TestInputs:
    def test_file_is_read_once_per_run(self, tmp_path, monkeypatch):
        path = tmp_path / "a.mtx"
        bg.write_matrix_market(path, bg.gen_svd_spectrum(30, 8, kappa=1e4, seed=1))
        reads = []

        def counting_read(source):
            reads.append(source)
            return bg.read_matrix_market(source)

        monkeypatch.setattr(harness, "read_matrix_market", counting_read)
        rows = bg.run(bg.ExperimentConfig(method="cgs2", m=30, n=8, generator="file",
                                          input_path=str(path), trials=3))
        assert reads == [str(path)]
        assert len(rows) == 3 and _untimed(rows) == _untimed(rows[:1]) * 3

    @pytest.mark.parametrize("generator", ["lauchli", "hilbert", "file"])
    def test_seedless_trials_share_one_read_only_matrix(self, tmp_path, generator):
        path = tmp_path / "a.mtx"
        bg.write_matrix_market(path, np.arange(1.0, 13.0).reshape(4, 3))
        cfg = bg.ExperimentConfig(method="cgs", m=4, n=3, generator=generator, kappa=10.0,
                                  input_path=str(path), trials=3)
        first, *rest = harness._inputs(cfg)
        assert len(rest) == 2 and all(a is first for a in rest)
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0

    def test_svd_draws_trial_i_with_seed_plus_i(self):
        cfg = _config(trials=3)
        for i, a in enumerate(harness._inputs(cfg)):
            expected = bg.gen_svd_spectrum(cfg.m, cfg.n, cfg.kappa, cfg.seed + i)
            assert a.tobytes() == expected.tobytes() and a.flags.writeable

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_every_method_factors_a_shared_read_only_matrix(self, method):
        blocks = bg.BlockPartition.uniform(12, 4) if method in ("bcgs", "bcgs2") else None
        rows = bg.run(bg.ExperimentConfig(method=method, m=30, n=12, blocks=blocks,
                                          generator="hilbert", trials=2))
        assert _untimed(rows[:1]) == _untimed(rows[1:])
        assert math.isfinite(rows[0].defect) and rows[0].rel_residual < 1e-12


def _public_row(config, a):
    """A trial's row computed through public calls alone, untimed: a
    separate SVD of ``a`` for the condition number and in
    ``relative_residual``."""
    part = config.partition()
    if config.method == "householder":
        res = bg.local_qr(a)
        factorization = bg.QRFactorization(res.q, res.r)
        defect = bg.orthogonality_defect(res.q)
    else:
        driver = getattr(bg, config.method)
        trace = driver(a, part) if config.method in ("bcgs", "bcgs2") else driver(a)
        factorization = trace.factorization
        defect = trace.per_block[-1].defect
    passed = True
    if config.method in ("cgs2", "bcgs2"):
        ctx = bg.BoundContext(m=config.m, p=part.max_width, n=config.n)
        passed = all(v.either_passed for v in bg.check_assumptions(trace, ctx))
    sv = np.linalg.svd(a, compute_uv=False)
    kappa = math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    return bg.ReportRow(config.method, config.m, config.n, part.max_width, kappa, defect,
                        bg.relative_residual(a, factorization), passed, 0.0)


class TestOneSvdOfA:
    @pytest.mark.parametrize("method", harness.METHODS)
    @pytest.mark.parametrize("generator", ["svd", "hilbert", "file"])
    def test_measurements_are_the_public_calls(self, tmp_path, method, generator):
        path = tmp_path / "a.mtx"
        bg.write_matrix_market(path, np.ascontiguousarray(bg.gen_svd_spectrum(30, 12, 1e5, 2)))
        blocks = bg.BlockPartition.uniform(12, 4) if method in ("bcgs", "bcgs2") else None
        cfg = bg.ExperimentConfig(method=method, m=30, n=12, blocks=blocks, generator=generator,
                                  kappa=1e5, input_path=str(path), trials=2)
        rows = _untimed(bg.run(cfg))
        expected = [_public_row(cfg, a) for a in harness._inputs(cfg)]
        for row, want in zip(rows, expected):
            assert float.hex(row.kappa_measured) == float.hex(want.kappa_measured)
            assert float.hex(row.rel_residual) == float.hex(want.rel_residual)
        assert rows == expected

    def test_lauchli_measurements_are_the_public_calls(self):
        cfg = bg.ExperimentConfig(method="cgs2", m=21, n=20, generator="lauchli", kappa=1e6)
        assert _untimed(bg.run(cfg)) == [_public_row(cfg, a) for a in harness._inputs(cfg)]

    def test_csv_bytes_of_a_sweep_are_the_public_calls(self, tmp_path):
        cfg = _config(trials=3, kappa=1e10)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        bg.emit_csv(_untimed(bg.run(cfg)), got)
        bg.emit_csv([_public_row(cfg, a) for a in harness._inputs(cfg)], want)
        assert got.read_bytes() == want.read_bytes()

    def test_one_full_svd_of_a_per_trial(self, monkeypatch):
        # a's own SVD, shared by the condition number and the residual's
        # denominator, and the SVD of the residual a - QR.
        cfg = _config(trials=3)
        shapes = []
        real_svd = np.linalg.svd

        def counting_svd(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real_svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        bg.run(cfg)
        assert shapes.count((cfg.m, cfg.n)) == 2 * cfg.trials


class TestPolicies:
    def test_strict_aborts_on_degraded_matrix(self, tmp_path):
        from conftest import degraded_cascade_matrix

        a, part, first_bad = degraded_cascade_matrix()
        path = tmp_path / "bad.mtx"
        bg.write_matrix_market(path, a)
        cfg = bg.ExperimentConfig(
            method="bcgs2", m=a.shape[0], n=a.shape[1],
            blocks=part, generator="file", input_path=str(path),
            policy="strict", trials=1,
        )
        with pytest.raises(AssumptionFailureError) as info:
            bg.run(cfg)
        assert info.value.block_index >= first_bad
        assert "check A" in str(info.value)

    def test_warn_records_and_continues(self, tmp_path):
        from conftest import degraded_cascade_matrix

        a, part, _ = degraded_cascade_matrix()
        path = tmp_path / "bad.mtx"
        bg.write_matrix_market(path, a)
        cfg = bg.ExperimentConfig(
            method="bcgs2", m=a.shape[0], n=a.shape[1],
            blocks=part, generator="file", input_path=str(path),
            policy="warn", trials=1,
        )
        rows = bg.run(cfg)
        assert not rows[0].assumptions_passed
        assert rows[0].defect > 1e-10


class TestEmission:
    def test_csv_roundtrip_exact(self, tmp_path):
        rows = bg.run(_config())
        path = tmp_path / "out.csv"
        bg.emit_csv(rows, path)
        back = bg.parse_csv(path)
        assert back == rows

    def test_csv_header(self, tmp_path):
        path = tmp_path / "out.csv"
        bg.emit_csv(bg.run(_config(trials=1)), path)
        assert path.read_text().splitlines()[0] == _CSV_HEADER

    def test_csv_text_and_errors_are_pinned(self, tmp_path):
        rows = [
            bg.ReportRow("bcgs2", 40, 16, 4, 1.5, 1e-16, 2.2250738585072014e-308, True, 0.1),
            bg.ReportRow("cgs", 9, 8, 1, math.inf, 0.5, -0.0, False, 3e-5),
        ]
        path = tmp_path / "out.csv"
        bg.emit_csv(rows, path)
        assert path.read_text() == (
            "method,m,n,p,kappa_measured,defect,rel_residual,assumptions_passed,"
            "wall_time_seconds\n"
            "bcgs2,40,16,4,1.5,9.9999999999999998e-17,2.2250738585072014e-308,true,"
            "0.10000000000000001\n"
            "cgs,9,8,1,inf,0.5,-0,false,3.0000000000000001e-05\n"
        )
        back = bg.parse_csv(path)
        assert back == rows
        assert math.copysign(1.0, back[1].rel_residual) == -1.0
        path.write_text(path.read_text() + "cgs,1,2\n")
        with pytest.raises(ValueError, match=r"bad row 'cgs,1,2'$"):
            bg.parse_csv(path)
        path.write_text("method,m\n")
        with pytest.raises(ValueError, match=r"unexpected header 'method,m'$"):
            bg.parse_csv(path)

    def test_csv_deterministic_across_runs_modulo_timing(self, tmp_path):
        # Timing is informational; every measured column reproduces exactly.
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        bg.emit_csv(bg.run(_config()), p1)
        bg.emit_csv(bg.run(_config()), p2)
        strip = lambda text: [
            ",".join(line.split(",")[:-1]) for line in text.splitlines()
        ]
        assert strip(p1.read_text()) == strip(p2.read_text())

    def test_plotdata_series_per_method(self, tmp_path):
        rows = bg.run(_config(trials=2)) + bg.run(
            _config(method="cgs", blocks=None, trials=2)
        )
        path = tmp_path / "plot.dat"
        bg.emit_plotdata(rows, path)
        text = path.read_text()
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("# bcgs2")
        assert blocks[1].startswith("# cgs")
        assert len(blocks[0].splitlines()) == 3  # header + 2 rows

    def test_kappa_sweep_separates_methods(self, tmp_path):
        # One-pass defect grows with conditioning; two-pass stays at roundoff.
        cgs_defects, bcgs2_defects = [], []
        for kappa in (1e2, 1e6, 1e10):
            cgs_defects.append(
                bg.run(_config(method="cgs", blocks=None, trials=1, kappa=kappa))[0].defect
            )
            bcgs2_defects.append(bg.run(_config(trials=1, kappa=kappa))[0].defect)
        assert cgs_defects[0] < cgs_defects[1] < cgs_defects[2]
        assert all(d <= 1e-13 for d in bcgs2_defects)


class TestReportContracts:
    # A bcgs2 row with m=200, n=64, p=8 is bounded at its last block, t = 56.
    DEFECT_BOUND = 10.0 * MACHINE_UNIT * f1(200, 56, 8)
    RESID_BOUND = 10.0 * MACHINE_UNIT * f2(200, 56, 8)

    @staticmethod
    def _row(method="bcgs2", defect=0.0, resid=0.0, passed=True):
        return bg.ReportRow(method, 200, 64, 8, 1.0, defect, resid, passed, 0.0)

    def test_rows_at_the_bounds_pass(self):
        bg.verify_report_contracts([self._row(defect=self.DEFECT_BOUND,
                                              resid=self.RESID_BOUND)])

    def test_defect_above_its_bound_raises(self):
        row = self._row(defect=2.0 * self.DEFECT_BOUND)
        with pytest.raises(AssertionError, match=(
            rf"^defect {row.defect:.3e} exceeds bound {self.DEFECT_BOUND:.3e} "
            r"for bcgs2 m=200 n=64 p=8$"
        )):
            bg.verify_report_contracts([self._row(), row])

    def test_residual_above_its_bound_raises(self):
        row = self._row(resid=2.0 * self.RESID_BOUND)
        with pytest.raises(AssertionError, match=(
            rf"^residual {row.rel_residual:.3e} exceeds bound {self.RESID_BOUND:.3e} "
            r"for bcgs2 m=200 n=64 p=8$"
        )):
            bg.verify_report_contracts([row])

    def test_unchecked_methods_and_failed_checks_are_skipped(self):
        bg.verify_report_contracts([
            self._row(method="cgs", defect=1.0, resid=1.0),
            self._row(defect=1.0, resid=1.0, passed=False),
        ])
