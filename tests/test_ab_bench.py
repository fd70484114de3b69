"""The verdict logic, option parsing and tree export of
scripts/ab_bench.py.  Nothing here runs the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten base runs with a tight spread: IQR 0.045 around a median of 1.045
TIGHT = [1.0 + 0.01 * i for i in range(10)]


def label(ab, base, change, better="lower", bound=0.25, more_failed=False):
    return ab.verdict(base, change, better, bound, more_failed)[1]


def test_regression(ab):
    assert label(ab, TIGHT, [1.5 * b for b in TIGHT]) == "REGRESSION"
    # higher-is-better metrics regress downwards
    assert label(ab, TIGHT, [0.5 * b for b in TIGHT], better="higher") == "REGRESSION"


def test_gain(ab):
    fields, verdict = ab.verdict(TIGHT, [b - 0.2 for b in TIGHT], "lower", 0.25, False)
    assert verdict == "GAIN"
    wins, better_by = fields[6], fields[7]
    assert wins == 10
    assert better_by == pytest.approx(0.2 / 1.045)


def test_gain_refused_when_more_operations_failed(ab):
    faster = [b - 0.2 for b in TIGHT]
    assert label(ab, TIGHT, faster, more_failed=True) == "within bound"


def test_gain_needs_nine_of_ten_wins(ab):
    # the medians are far apart but two pairs go to the base
    change = [b - 0.2 for b in TIGHT]
    change[0] = change[1] = 5.0
    assert label(ab, TIGHT, change, bound=10.0) == "within bound"


def test_unresolved(ab):
    noisy = [1.0, 2.0] * 5  # IQR over median is 1/1.5, above the bound
    assert label(ab, noisy, list(noisy)) == "unresolved"


def test_within_bound(ab):
    assert label(ab, TIGHT, list(TIGHT)) == "within bound"
    assert label(ab, TIGHT, [b * 1.1 for b in TIGHT]) == "within bound"


def test_unknown_workload_is_an_argument_error(ab, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["HEAD", "--workload", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_worktree_export_holds_what_add_all_would_stage(ab, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "tracked.txt").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "tracked.txt").write_text("edited\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("build output\n")

    tree = ab.worktree_tree(tmp_path / "index", repo)
    ab.export_rev(tree, tmp_path / "change", repo)
    ab.export_rev("HEAD", tmp_path / "base", repo)

    assert (tmp_path / "change" / "tracked.txt").read_text() == "edited\n"
    assert (tmp_path / "change" / "untracked.txt").read_text() == "new\n"
    assert not (tmp_path / "change" / "ignored.txt").exists()
    assert (tmp_path / "base" / "tracked.txt").read_text() == "committed\n"
    assert not (tmp_path / "base" / "untracked.txt").exists()
    # the repository's own index is untouched: nothing is staged
    status = subprocess.run(["git", "-C", str(repo), "status", "--porcelain"],
                            check=True, capture_output=True, text=True).stdout
    assert sorted(status.splitlines()) == [" M tracked.txt", "?? untracked.txt"]


METRICS = [
    {"name": "op_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def fake_run(op_tail_s, peak_rss_mb, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 40,
        "failed": failed,
        "metrics": {"op_tail_s": {"value": op_tail_s, "unit": "s"},
                    "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}},
        "context": {"nproc": 2, "numpy": "2.0", "OPENBLAS_NUM_THREADS": "1"},
    }


def test_summary_schema(ab):
    runs = {
        "base": [fake_run(b, 65.0 + 0.01 * i) for i, b in enumerate(TIGHT)],
        "change": [fake_run(b, 52.0, failed=int(i == 0), correct=i != 0)
                   for i, b in enumerate(TIGHT)],
    }
    summary = ab.summarize(runs, METRICS)
    assert summary["ops"] == {
        "base": {"failed": 0, "attempted": 400, "runs": 10, "runs_failing_a_check": 0},
        "change": {"failed": 1, "attempted": 400, "runs": 10, "runs_failing_a_check": 1},
    }
    assert summary["more_failed"] is True
    assert list(summary["metrics"]) == ["op_tail_s", "peak_rss_mb"]
    rss = summary["metrics"]["peak_rss_mb"]
    assert set(rss) == {"unit", "better", "bound", "base", "change", "wins", "pairs",
                        "better_by", "verdict"}
    assert rss["base"] == {"median": pytest.approx(65.045), "q1": pytest.approx(65.0225),
                           "q3": pytest.approx(65.0675)}
    assert rss["change"] == {"median": 52.0, "q1": 52.0, "q3": 52.0}
    assert (rss["unit"], rss["bound"], rss["wins"], rss["pairs"]) == ("MB", 0.1, 10, 10)
    # the change failed one more operation, so no GAIN
    assert rss["verdict"] == "within bound"
    assert summary["metrics"]["op_tail_s"]["verdict"] == "within bound"
    rows = ab.summary_rows("reconstruct", summary)
    assert rows[1].startswith("reconstruct  change failed ops 1/400, runs failing a check 1/10")
    assert rows[3].endswith("wins 10/10  better by +20.1% (bound 10%)  within bound")

    record = ab.run_record("change", 71, runs["change"][0])
    assert record == {"side": "change", "seed": 71, "correct": False, "failed": 1,
                      "attempted": 40, "metrics": {"op_tail_s": 1.0, "peak_rss_mb": 52.0},
                      "context": runs["change"][0]["context"]}
    json.dumps({**summary, "runs": [record]})  # plain data only


def test_run_once_keeps_the_context_line(ab, tmp_path):
    printer = ("import json, sys\n"
               "print('context ' + json.dumps({'nproc': 2, 'argv': sys.argv[1:]}))\n"
               "print('metric op_tail_s = 1 s')\n"
               "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0, "
               "'metrics': {}}))\n")
    res = ab.run_once([sys.executable, "-c", printer], tmp_path, "train", 7, 0.5)
    assert res["context"] == {"nproc": 2, "argv": ["--workload", "train", "--seed", "7",
                                                   "--seconds", "0.5", "--trace", "0"]}
    assert (res["correct"], res["attempted"]) == (True, 3)
    silent = "print('{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}')"
    assert ab.run_once([sys.executable, "-c", silent], tmp_path, "train", 7, 0.5)["context"] is None
