"""The verdict logic, option parsing and tree export of
scripts/ab_bench.py.  Nothing here runs the benchmark."""

import importlib.util
import subprocess
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
