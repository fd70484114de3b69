import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fincflow
from fincflow.bench import (
    CSV_HEADER,
    BenchReport,
    bench_invert,
    ci95_half_width,
    run_checks,
    write_gnuplot,
)
from fincflow.cli import main, parse_config_file
from fincflow.errors import BadFormat
from fincflow.flow import FlowModel, ModelConfig
from fincflow.images import read_image
from fincflow.tensor import read_tensor


# ---------------------------------------------------------------------------
# bench reports


def test_report_statistics_recompute():
    rng = np.random.default_rng(0)
    rep = BenchReport(16, 4, 3, 1, "wavefront", runs_s=list(rng.uniform(0.01, 0.02, 11)))
    kept = np.asarray(rep.runs_s[1:])
    assert abs(rep.mean_s - kept.mean()) < 1e-12
    assert abs(rep.std_s - kept.std(ddof=1)) < 1e-12
    # t quantile for 9 dof, 97.5%: recompute the half width independently
    from scipy.stats import t

    want = t.ppf(0.975, 9) * kept.std(ddof=1) / math.sqrt(10)
    assert abs(rep.ci95_s - want) < 1e-12


def test_ci_uses_t_distribution_nine_dof():
    vals = np.arange(10, dtype=np.float64)
    got = ci95_half_width(vals)
    s = vals.std(ddof=1)
    assert got == pytest.approx(2.2621571627982055 * s / math.sqrt(10), rel=1e-12)


def test_bench_pcb_runs_protocol():
    rep = bench_invert(8, 2, 2, 1, "wavefront", runs=11)
    assert len(rep.runs_s) == 11
    assert rep.phases == 2 * 8 - 1
    assert rep.mean_s > 0
    ref = bench_invert(8, 2, 2, 1, "reference", runs=11)
    assert ref.madds == rep.madds  # identical work counts for the same problem


def test_bench_unit_phase_sharing():
    rep = bench_invert(8, 4, 3, 1, "wavefront", unit=True, runs=2)
    assert rep.phases == 2 * 8 - 1
    assert rep.strategy == "unit-wavefront"


def test_gnuplot_output(tmp_path):
    reps = [bench_invert(8, 2, 2, 1, s, runs=2) for s in ("reference", "wavefront")]
    path = tmp_path / "curve.dat"
    write_gnuplot(reps, path)
    text = path.read_text()
    assert "reference" in text and "wavefront" in text


# ---------------------------------------------------------------------------
# check suite


def test_run_checks_all_pass():
    results = run_checks(size=8, channels=4, k=3, seed=0)
    for r in results:
        assert r.passed, r.line()


def test_run_checks_fault_injection_fails_triangular():
    results = run_checks(size=8, channels=4, k=3, seed=0, inject_fault="anchor")
    by_name = {r.name: r for r in results}
    assert not by_name["triangular, unit diagonal, det=1"].passed


def test_run_checks_dense_skip_notice():
    results = run_checks(size=64, channels=2, k=2, seed=0)
    names = [r.name for r in results]
    assert "triple oracle agreement" not in names
    assert any("dense skipped" in r.note for r in results)


# ---------------------------------------------------------------------------
# cli


def test_cli_check_exit_codes():
    assert main(["check", "--size", "8", "--channels", "4", "--workers", "2"]) == 0
    assert main(["check", "--size", "8", "--inject", "anchor"]) == 1
    assert main(["check", "--size", "8", "--kernel-size", "0"]) == 1
    assert main(["check", "--size", "-2"]) == 1
    assert main(["check", "--size", "8", "--kernel-size", "-1"]) == 1


_CHECK_ROWS = (
    ("round trip f64", "1.000e-09"),
    ("round trip f32", "1.000e-04"),
    ("triple oracle agreement", "1.000e-09"),
    ("triangular, unit diagonal, det=1", "0.000e+00"),
    ("barrier phases == H+W-1", "0.000e+00"),
    ("per-element madds <= k^2*C", "0.000e+00"),
    ("worker-count determinism", "0.000e+00"),
    ("unit round trip f64", "1.000e-09"),
    ("flow gradient check", "1.000e-03"),
)
_CHECK_LINE = re.compile(
    r"(PASS|FAIL)  (.{34}) max_err=\S+  limit=(\S+)(?:  \((.*)\))?"
)


@pytest.mark.parametrize(
    "argv, exit_code, failing, oracle",
    [
        (["--size", "8", "--channels", "4", "--workers", "2"], 0, set(), None),
        (
            ["--size", "8", "--inject", "anchor"],
            1,
            {
                "round trip f64",
                "round trip f32",
                "triple oracle agreement",
                "triangular, unit diagonal, det=1",
            },
            None,
        ),
        (
            ["--size", "64", "--channels", "2", "--kernel-size", "2"],
            0,
            set(),
            ("wavefront vs reference", "dense skipped: H*W*C=8192 > 4096"),
        ),
        (["--size", "8", "--channels", "3", "--kernel-size", "5", "--seed", "3"], 0, set(), None),
    ],
)
def test_cli_check_output_pinned(capsys, argv, exit_code, failing, oracle):
    """Every line's order, name, limit, status and note, the summary line
    and the exit code of ``fincflow check``; max_err values are left free,
    since their last digit can follow the BLAS build."""
    rows = [list(row) + [None] for row in _CHECK_ROWS]
    if oracle is not None:
        rows[2][0], rows[2][2] = oracle
    assert main(["check", *argv]) == exit_code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(rows) + 1
    for line, (name, limit, note) in zip(lines, rows):
        m = _CHECK_LINE.fullmatch(line)
        assert m is not None, line
        status = "FAIL" if name in failing else "PASS"
        assert (m[1], m[2].rstrip(), m[3], m[4]) == (status, name, limit, note)
    assert lines[-1] == f"{len(rows) - len(failing)}/{len(rows)} checks passed"


def test_cli_import_leaves_scipy_unloaded():
    """scipy serves only bench's t-quantiles; the CLI must not load it at
    start-up."""
    code = "import sys, fincflow.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    src = str(Path(fincflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_train_sample_reconstruct_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "train",
            "--data",
            "synthetic",
            "--count",
            "64",
            "--epochs",
            "1",
            "--batch-size",
            "32",
            "--levels",
            "2",
            "--steps",
            "1",
            "--hidden",
            "8",
            "--out",
            str(out),
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "epoch,step,nll,bpd,grad_norm,lr"
    assert len(metrics) >= 2
    assert (out / "model.ckpt").exists()

    rc = main(
        [
            "sample",
            str(out / "model.ckpt"),
            "--count",
            "4",
            "--temperature",
            "0",
            "--out",
            str(out / "samples"),
        ]
    )
    assert rc == 0
    files = sorted((out / "samples").iterdir())
    assert len(files) == 4
    # 4-channel model: .ften fallback with model dims
    arr = read_tensor(files[0])
    assert arr.shape == (1, 4, 8, 8)

    rc = main(
        [
            "reconstruct",
            str(out / "model.ckpt"),
            str(files[0]),
            str(out / "recon.ften"),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    err_line = [l for l in captured.out.splitlines() if "max abs" in l][0]
    assert float(err_line.split(":")[1]) <= 1e-3


def test_cli_sample_temperature_zero_identical(tmp_path):
    out = tmp_path / "m"
    assert main(["train", "--epochs", "1", "--count", "32", "--batch-size", "32",
                 "--levels", "1", "--steps", "1", "--hidden", "8",
                 "--out", str(out), "--seed", "1"]) == 0
    for d in ("s1", "s2"):
        assert main(["sample", str(out / "model.ckpt"), "--count", "1",
                     "--temperature", "0", "--out", str(out / d)]) == 0
    a = (out / "s1" / "sample_000.ften").read_bytes()
    b = (out / "s2" / "sample_000.ften").read_bytes()
    assert a == b


def test_cli_train_rejects_bad_levels(tmp_path, capsys):
    for bad in (["--levels", "4"], ["--kernel-size", "0"], ["--hidden", "0"],
                ["--batch-size", "0"], ["--batch-size", "-3"], ["--count", "0"],
                ["--channels", "0"], ["--size", "0"], ["--size", "1"],
                ["--grad-clip", "-1"], ["--grad-clip", "0"], ["--grad-clip", "nan"],
                ["--grad-clip", "inf"], ["--workers", "0"], ["--workers", "-3"]):
        rc = main(["train", "--size", "8", *bad, "--out", str(tmp_path / "x"), "--epochs", "1"])
        assert rc == 1, bad
        assert "error:" in capsys.readouterr().err, bad
        assert not (tmp_path / "x" / "model.ckpt").exists()
    assert main(["train", "--size", "8", "--out", str(tmp_path / "x"), "--epochs", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x" / "model.ckpt").exists()


@pytest.mark.parametrize("refusal", [
    MemoryError("Unable to allocate 53.6 GiB for an array"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the "
               "maximum possible size."),
])
def test_cli_train_huge_hidden_is_an_error(tmp_path, capsys, monkeypatch, refusal):
    import fincflow.flow

    asked = []

    def refuse(self, c_in, c_out, k, *args, **kwargs):
        # stands in for numpy's refusal: nothing of that size is requested
        asked.append((c_in, c_out))
        raise refusal

    monkeypatch.setattr(fincflow.flow.Conv2d, "__init__", refuse)
    rc = main(["train", "--size", "8", "--count", "2", "--hidden", "100000000",
               "--out", str(tmp_path / "x"), "--epochs", "1"])
    assert asked and asked[0][1] == 100000000
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: cannot allocate the parameters" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cli_sample_rejects_bad_count(tmp_path, capsys):
    from fincflow.train import checkpoint_save

    ckpt = tmp_path / "m.ckpt"
    checkpoint_save(FlowModel(ModelConfig(4, 8, 8, levels=1, steps=1, hidden=8)), ckpt)
    for count in ("0", "-1"):
        assert main(["sample", str(ckpt), "--count", count, "--out", str(tmp_path / "s")]) == 1
        assert "error: --count" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cli_sample_rejects_non_finite_temperature(tmp_path, capsys):
    from fincflow.train import checkpoint_save

    ckpt = tmp_path / "m.ckpt"
    checkpoint_save(FlowModel(ModelConfig(4, 8, 8, levels=1, steps=1, hidden=8)), ckpt)
    for temperature in ("nan", "inf", "-inf"):
        args = ["sample", str(ckpt), "--count", "2", f"--temperature={temperature}",
                "--out", str(tmp_path / "s")]
        assert main(args) == 1, temperature
        err = capsys.readouterr().err
        assert "error: temperature" in err and "Traceback" not in err, temperature
    assert not (tmp_path / "s").exists()


def test_cli_sample_files_identical_for_any_worker_count(tmp_path):
    out = tmp_path / "m"
    assert main(["train", "--epochs", "1", "--count", "32", "--batch-size", "32",
                 "--levels", "1", "--steps", "1", "--hidden", "8",
                 "--out", str(out), "--seed", "2"]) == 0
    for workers in ("1", "2"):
        assert main(["sample", str(out / "model.ckpt"), "--count", "40",
                     "--workers", workers, "--out", str(out / f"w{workers}")]) == 0
    names = sorted(p.name for p in (out / "w1").iterdir())
    assert len(names) == 40
    assert names == sorted(p.name for p in (out / "w2").iterdir())
    for name in names:
        assert (out / "w1" / name).read_bytes() == (out / "w2" / name).read_bytes(), name


def test_cli_train_deterministic_rerun(tmp_path):
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert main(["train", "--epochs", "1", "--count", "32", "--batch-size", "16",
                     "--levels", "1", "--steps", "1", "--hidden", "8",
                     "--out", str(out), "--seed", "9"]) == 0
        outs.append((out / "metrics.csv").read_text())
    assert outs[0] == outs[1]


def test_cli_reconstruct_identity_model_pixel_exact(tmp_path):
    from fincflow.flow import FlowModel, ModelConfig
    from fincflow.images import write_image
    from fincflow.train import checkpoint_save

    model = FlowModel(
        ModelConfig(1, 8, 8, levels=1, steps=1, hidden=8, dtype="f32"),
        identity_init=True,
        data_init=False,
    )
    ckpt = tmp_path / "ident.ckpt"
    checkpoint_save(model, ckpt)
    img = np.random.default_rng(0).integers(0, 256, (1, 8, 8), dtype=np.uint8)
    write_image(tmp_path / "in.pgm", img)
    rc = main(["reconstruct", str(ckpt), str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm")])
    assert rc == 0
    assert np.array_equal(read_image(tmp_path / "out.pgm"), img)


def test_cli_reconstruct_dims_mismatch(tmp_path):
    out = tmp_path / "m"
    assert main(["train", "--epochs", "1", "--count", "32", "--batch-size", "32",
                 "--levels", "1", "--steps", "1", "--hidden", "8",
                 "--out", str(out), "--seed", "1"]) == 0
    from fincflow.tensor import write_tensor

    bad = tmp_path / "bad.ften"
    write_tensor(bad, np.zeros((1, 4, 16, 16), np.float32))
    rc = main(["reconstruct", str(out / "model.ckpt"), str(bad), str(tmp_path / "o.ften")])
    assert rc == 1


def test_cli_bench_csv_and_caps(tmp_path, capsys):
    rc = main(
        [
            "bench",
            "--sizes",
            "8,16",
            "--channels",
            "2",
            "--kernel-size",
            "2",
            "--strategies",
            "reference,wavefront",
            "--workers",
            "2",
        ]
    )
    assert rc == 0
    outp = capsys.readouterr().out.strip().splitlines()
    assert outp[0] == CSV_HEADER
    assert len(outp) == 5
    rows = [line.split(",") for line in outp[1:]]
    # wavefront rows: phase column is 2n-1
    for row in rows:
        if row[5] == "wavefront":
            assert int(row[9]) == 2 * int(row[0]) - 1


@pytest.mark.parametrize("target", ["pcb", "unit"])
def test_cli_bench_workers_column_reads_one(capsys, target):
    # every strategy runs on the calling thread, whatever --workers says
    args = ["bench", "--target", target, "--sizes", "8", "--channels", "4",
            "--strategies", "reference,wavefront", "--workers", "3"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 2
    assert [row[4] for row in rows] == ["1", "1"]


def test_bench_scaling_script_smoke(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_scaling.py"
    src = str(Path(fincflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, str(script), "--sizes", "8,16,32", "--out", str(tmp_path)],
                   env=env, check=True, timeout=300, capture_output=True)
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert all(row[4] == "1" for row in rows)
    for row in rows:
        if row[5] == "wavefront":
            assert int(row[9]) == 2 * int(row[0]) - 1
    assert (tmp_path / "curve.dat").is_file()


def test_cli_bench_dense_refused_above_cap(tmp_path, capsys):
    rc = main(
        ["bench", "--sizes", "64", "--channels", "2", "--strategies", "dense",
         "--workers", "1"]
    )
    # every row was skipped, so nothing was measured: an error, and no CSV
    assert rc == 1
    captured = capsys.readouterr()
    assert "dense" in captured.err and "error:" in captured.err
    assert captured.out == ""


def test_cli_bench_rejects_empty_strategies_and_all_skipped(capsys):
    assert main(["bench", "--sizes", "8", "--strategies", ",,"]) == 1
    captured = capsys.readouterr()
    assert "error: no bench strategies given" in captured.err and captured.out == ""
    assert main(["bench", "--sizes", "8", "--target", "unit", "--strategies", "dense"]) == 1
    captured = capsys.readouterr()
    assert "dense strategy not defined for units" in captured.err
    assert "error: every bench row was skipped" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "target,madds", [("pcb", {8: 12064, 16: 56608}), ("unit", {8: 3016, 16: 14152})]
)
def test_cli_bench_reference_madds_match_wavefront(capsys, target, madds):
    """The reference rows report the wavefront's multiply-add count:
    in-bounds non-anchor taps, sum over pixels (i, j) of
    min(k, i+1) * min(k, j+1) - 1, times C_block^2 * batch * blocks."""
    args = ["bench", "--target", target, "--sizes", "8,16", "--channels", "4",
            "--batch", "2", "--strategies", "reference,wavefront"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    got = {(int(r[0]), r[5].removeprefix("unit-")): int(r[10]) for r in rows}
    assert got == {(n, s): m for n, m in madds.items() for s in ("reference", "wavefront")}


def test_cli_bench_rejects_bad_sizes(capsys):
    assert main(["bench", "--sizes", "12"]) == 1
    assert main(["bench", "--sizes", "512"]) == 1
    capsys.readouterr()
    assert main(["bench", "--sizes", "abc"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["bench", "--sizes", "8", "--batch", "-1"]) == 1
    assert "error:" in capsys.readouterr().err
    for workers in ("0", "-3"):
        args = ["bench", "--sizes", "8", "--strategies", "reference", "--workers", workers]
        assert main(args) == 1, workers
        captured = capsys.readouterr()
        assert "error:" in captured.err and "workers" in captured.err, workers
        assert "reference" not in captured.out, workers  # no CSV row was written


def test_config_file_parse_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs = 2\nbatch-size = 16\nhidden = 8\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"epochs": "2", "batch_size": "16", "hidden": "8"}
    out = tmp_path / "trained"
    rc = main(
        ["train", "--config", str(cfg), "--epochs", "1", "--count", "32",
         "--levels", "1", "--steps", "1", "--out", str(out), "--seed", "2"]
    )
    assert rc == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    # flag --epochs 1 overrides the file's 2: one epoch of 32/16 = 2 steps
    assert len(lines) == 1 + 2


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_option = 1\n")
    assert main(["check", "--config", str(cfg)]) == 1


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    with pytest.raises(BadFormat):
        parse_config_file(cfg)


def test_config_file_unparsable_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = abc\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 1
    assert "error: key epochs" in capsys.readouterr().err
    cfg.write_text("temperature = hot\n")
    assert main(["sample", str(tmp_path / "none.ckpt"), "--config", str(cfg)]) == 1
    assert "error: key temperature" in capsys.readouterr().err


def test_workers_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("FINCFLOW_WORKERS", "3")
    from fincflow.cli import build_parser

    parser, _ = build_parser()
    args = parser.parse_args(["check"])
    assert args.workers == 3
    monkeypatch.setenv("FINCFLOW_WORKERS", "junk")
    parser, _ = build_parser()
    args = parser.parse_args(["check"])
    assert args.workers == 1


def test_cli_sample_pgm_for_single_channel(tmp_path):
    out = tmp_path / "gray"
    assert main(["train", "--epochs", "1", "--count", "32", "--batch-size", "32",
                 "--channels", "1", "--size", "8", "--levels", "1", "--steps", "1",
                 "--hidden", "8", "--out", str(out), "--seed", "4"]) == 0
    assert main(["sample", str(out / "model.ckpt"), "--count", "2",
                 "--out", str(out / "s")]) == 0
    img = read_image(out / "s" / "sample_000.pgm")
    assert img.shape == (1, 8, 8)

