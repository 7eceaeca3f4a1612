"""CLI tests: argument handling, exit codes, file input, output artifacts."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockgs as bg
from blockgs.cli import build_parser, main
from blockgs.harness import GENERATORS
from conftest import degraded_cascade_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


def test_basic_run_writes_csv_and_plot(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    plot = tmp_path / "out.dat"
    code = main([
        "--method", "bcgs2", "--m", "40", "--n", "16", "--block", "4",
        "--gen", "svd", "--kappa", "1e6", "--seed", "3", "--trials", "2",
        "--csv", str(csv), "--plot", str(plot),
    ])
    assert code == 0
    rows = bg.parse_csv(csv)
    assert len(rows) == 2 and all(r.defect < 1e-12 for r in rows)
    assert plot.read_text().startswith("# bcgs2")
    assert "worst defect" in capsys.readouterr().out


def test_explicit_partition(tmp_path):
    csv = tmp_path / "out.csv"
    code = main([
        "--method", "bcgs2", "--m", "30", "--n", "10", "--blocks", "4,4,2",
        "--gen", "svd", "--kappa", "100", "--csv", str(csv),
    ])
    assert code == 0
    assert bg.parse_csv(csv)[0].p == 4


def test_householder_method(tmp_path):
    csv = tmp_path / "out.csv"
    code = main([
        "--method", "householder", "--m", "30", "--n", "10",
        "--gen", "svd", "--kappa", "1e10", "--csv", str(csv),
    ])
    assert code == 0
    row = bg.parse_csv(csv)[0]
    assert row.p == 10 and row.defect < 1e-13


def test_lauchli_derives_row_count(tmp_path):
    csv = tmp_path / "out.csv"
    code = main([
        "--method", "cgs2", "--n", "20", "--gen", "lauchli", "--kappa", "1e8",
        "--csv", str(csv),
    ])
    assert code == 0
    row = bg.parse_csv(csv)[0]
    assert (row.m, row.n) == (21, 20)


def test_hilbert_trials_factor_one_matrix(tmp_path):
    csv = tmp_path / "out.csv"
    code = main([
        "--method", "mgs", "--m", "30", "--n", "8", "--gen", "hilbert", "--trials", "2",
        "--csv", str(csv),
    ])
    assert code == 0
    first, second = (dataclasses.replace(r, wall_time_seconds=0.0) for r in bg.parse_csv(csv))
    assert first == second and (first.m, first.n, first.p) == (30, 8, 1)


def test_gen_choices_are_the_harness_generators():
    (gen,) = [action for action in build_parser()._actions if action.dest == "gen"]
    assert tuple(gen.choices) == GENERATORS == ("svd", "lauchli", "hilbert", "file")


def test_file_input_roundtrip(tmp_path):
    a = bg.gen_svd_spectrum(25, 10, kappa=1e4, seed=2)
    mtx = tmp_path / "a.mtx"
    bg.write_matrix_market(mtx, a)
    csv = tmp_path / "out.csv"
    code = main([
        "--method", "cgs2", "--gen", "file", "--input", str(mtx),
        "--csv", str(csv),
    ])
    assert code == 0
    row = bg.parse_csv(csv)[0]
    assert (row.m, row.n) == (25, 10)


def test_strict_policy_assumption_failure_exits_2(tmp_path, capsys):
    a, part, _ = degraded_cascade_matrix()
    mtx = tmp_path / "bad.mtx"
    bg.write_matrix_market(mtx, a)
    code = main([
        "--method", "bcgs2", "--gen", "file", "--input", str(mtx),
        "--block", str(part.max_width), "--policy", "strict",
        "--csv", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "block" in capsys.readouterr().err


def test_hard_breakdown_exits_1(tmp_path, capsys):
    col = np.random.default_rng(0).standard_normal((8, 1))
    a = np.hstack([col, col])
    mtx = tmp_path / "dup.mtx"
    bg.write_matrix_market(mtx, a)
    csv = tmp_path / "out.csv"
    args = ["--method", "bcgs2", "--gen", "file", "--input", str(mtx), "--block", "2",
            "--csv", str(csv)]
    assert main(args) == 1
    assert "breakdown" in capsys.readouterr().err
    # The output is checked before the sweep, not created or truncated.
    assert not csv.exists()
    csv.write_text("kept\n")
    assert main(args) == 1
    assert csv.read_text() == "kept\n"


@pytest.mark.parametrize("method", ["cgs", "bcgs2"])
def test_svd_failure_exits_1(tmp_path, capsys, monkeypatch, method):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    csv = tmp_path / "out.csv"
    blocks = ["--block", "4"] if method == "bcgs2" else []
    code = main(["--method", method, "--m", "20", "--n", "8", *blocks, "--csv", str(csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert "numerical breakdown: SVD did not converge" in err
    assert "Traceback" not in err and not csv.exists()


@pytest.mark.parametrize("method", ["bcgs", "bcgs2"])
def test_overflowing_column_norm_exits_1(tmp_path, capsys, method):
    # Finite entries whose squares overflow: the width-1 panel's norm is inf.
    a = np.random.default_rng(0).standard_normal((8, 3))
    a[:, 0] *= 1e200
    mtx = tmp_path / "big.mtx"
    bg.write_matrix_market(mtx, a)
    with np.errstate(over="ignore"):
        code = main([
            "--method", method, "--gen", "file", "--input", str(mtx),
            "--block", "1", "--csv", str(tmp_path / "out.csv"),
        ])
    assert code == 1
    assert "numerical breakdown: block 1: column norm inf" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["cgs", "cgs2", "mgs"])
def test_overflowing_column_norm_exits_1_column_methods(tmp_path, capsys, method):
    # The first column goes through the panel factorization's rank test.
    a = np.random.default_rng(0).standard_normal((8, 3))
    a[:, 0] *= 1e200
    mtx = tmp_path / "big.mtx"
    bg.write_matrix_market(mtx, a)
    with np.errstate(over="ignore"):
        code = main([
            "--method", method, "--gen", "file", "--input", str(mtx),
            "--csv", str(tmp_path / "out.csv"),
        ])
    assert code == 1
    assert "numerical breakdown: column 1: column norm inf" in capsys.readouterr().err


def test_block_flag_for_column_method_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([
            "--method", "cgs", "--m", "10", "--n", "4", "--block", "2",
            "--gen", "svd", "--csv", str(tmp_path / "out.csv"),
        ])


def test_missing_sizes_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["--method", "cgs", "--gen", "svd", "--csv", str(tmp_path / "o.csv")])


def test_zero_block_width_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "bcgs2", "--m", "10", "--n", "4", "--block", "0",
            "--gen", "svd", "--csv", str(tmp_path / "out.csv"),
        ])
    assert exc.value.code == 2
    assert "width >= 1" in capsys.readouterr().err


def test_partition_wider_than_stability_checks_allow_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "bcgs2", "--m", "100", "--n", "100", "--block", "16",
            "--csv", str(csv),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "partition (16, 16, 16, 16, 16, 16, 4)" in err and "got m=100" in err
    assert "Traceback" not in err and not csv.exists()


def test_block_and_blocks_are_mutually_exclusive(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "bcgs2", "--m", "10", "--n", "2", "--block", "2", "--blocks", "1,1",
            "--csv", str(csv),
        ])
    assert exc.value.code == 2
    assert "argument --blocks: not allowed with argument --block" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize(
    "blocks, message",
    [
        ("4,0,4", "all block widths must be >= 1, got (4, 0, 4)"),
        ("4,x,4", "cannot parse --blocks '4,x,4'"),
    ],
)
def test_bad_block_widths_are_usage_errors(tmp_path, capsys, blocks, message):
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "bcgs2", "--m", "30", "--n", "8", "--blocks", blocks,
            "--csv", str(csv),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and not csv.exists()


def test_partition_that_does_not_cover_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "bcgs", "--m", "30", "--n", "10", "--blocks", "4,4",
            "--csv", str(csv),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "partition widths sum to 8, but the matrix has 10 columns" in err
    assert "Traceback" not in err and not csv.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--m", "10", "--n", "5", "--kappa", "nan"], "kappa must be >= 1, got nan"),
        (["--n", "5", "--gen", "lauchli", "--kappa", "inf"],
         "lauchli generator needs a finite kappa"),
    ],
)
def test_non_finite_kappa_is_usage_error(tmp_path, capsys, args, message):
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--method", "cgs", *args, "--csv", str(csv)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not csv.exists()


def test_negative_seed_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--method", "cgs", "--m", "10", "--n", "4", "--seed", "-1", "--csv", str(csv)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err
    assert "Traceback" not in err and not csv.exists()


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    mtx = tmp_path / "missing.mtx"
    with pytest.raises(SystemExit) as exc:
        main(["--method", "cgs2", "--gen", "file", "--input", str(mtx), "--csv", str(csv)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(mtx) in err
    assert "Traceback" not in err and not csv.exists()


@pytest.mark.parametrize("flag", ["--csv", "--plot"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, flag):
    bad = tmp_path / "no" / "such" / "dir" / "o.out"
    outputs = {"--csv": str(tmp_path / "out.csv"), "--plot": str(tmp_path / "out.dat")}
    outputs[flag] = str(bad)
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "cgs", "--m", "10", "--n", "4",
            "--csv", outputs["--csv"], "--plot", outputs["--plot"],
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(bad) in err
    assert "Traceback" not in err and not bad.exists()
    assert not (tmp_path / "out.dat").exists()


def _no_sweep(config):
    raise AssertionError("the sweep ran before the outputs were checked")


@pytest.mark.parametrize("flag", ["--csv", "--plot"])
@pytest.mark.parametrize(
    "kind, message",
    [
        ("missing-dir", "No such file or directory"),
        ("directory", "Is a directory"),
        ("read-only", "Permission denied"),
    ],
)
def test_unwritable_output_is_reported_before_the_sweep(
    tmp_path, capsys, monkeypatch, flag, kind, message
):
    outputs = {"--csv": tmp_path / "out.csv", "--plot": tmp_path / "out.dat"}
    if kind == "missing-dir":
        outputs[flag] = tmp_path / "no" / "o.out"
    elif kind == "directory":
        outputs[flag] = tmp_path
    else:
        # Permissions do not bind every user, so the check's own view of
        # them is what is refused here.
        locked = tmp_path / "locked"
        locked.mkdir()
        outputs[flag] = locked / "o.out"
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda p, mode: p != str(locked) and real_access(p, mode)
        )
    monkeypatch.setattr("blockgs.cli.run", _no_sweep)
    with pytest.raises(SystemExit) as exc:
        main([
            "--method", "cgs", "--m", "10", "--n", "4",
            "--csv", str(outputs["--csv"]), "--plot", str(outputs["--plot"]),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and str(outputs[flag]) in err
    assert "Traceback" not in err
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


def test_module_entry_point(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    csv = tmp_path / "out.csv"

    def factor(*args):
        return subprocess.run(
            [sys.executable, "-m", "blockgs", "--method", "cgs", "--m", "10", "--n", "4",
             *args, "--csv", str(csv)],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = factor()
    assert done.returncode == 0, done.stderr
    (row,) = bg.parse_csv(csv)
    assert (row.method, row.m, row.n, row.p) == ("cgs", 10, 4, 1)
    csv.unlink()
    usage = factor("--seed", "-1")
    assert usage.returncode == 2
    assert "seed must be >= 0, got -1" in usage.stderr
    assert "Traceback" not in usage.stderr and not csv.exists()
