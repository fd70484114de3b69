#!/usr/bin/env python3
"""Compare the benchmark of a base revision with the working tree.

    python3 scripts/ab_bench.py BASE_REV [--first-seed 71] [--pairs 10]
                                [--workload NAME ...] [--json PATH]

The committed files of BASE_REV and the working tree, as ``git add -A``
would stage it (untracked files in, git-ignored files out), are each
exported with ``git archive`` into a temporary directory, and each run
moves its side's copy to one shared path, so the two sides differ only in
their files.  For every workload in BENCHMARK.json (or each one
named by a repeated ``--workload``) and every seed,
the benchmark command runs once on each tree with ``--trace 0`` for
BENCHMARK.json's ``run_seconds``;
the tree that runs first alternates from pair to pair, so both sides see
the host's slow and fast phases alike.  Each run's metrics are printed as
it finishes.

The summary gives, for every end-to-end metric of BENCHMARK.json on every
workload, each side's median and quartiles, how many pairs the working
tree won (ties count for neither side), the change of the medians and the
metric's regression bound.  Its verdict is one of:

* ``REGRESSION``: the working tree's median is worse than the base's by
  more than the bound;
* ``GAIN``: the working tree won at least nine tenths of the pairs, the
  medians differ by more than the base's interquartile range and the
  working tree failed no more operations than the base;
* ``unresolved``: the base's own spread (IQR over median) exceeds the
  bound and not every working-tree run beats every base run;
* ``within bound`` otherwise.

Failed operations and failed checks are counted per side.  ``--json PATH``
also writes the summary as data: the base revision and the commit it
resolved to, the working tree's git tree id, the seeds, the seconds per
run and, for every workload, each metric's medians, quartiles, wins and
verdict, each side's failed and attempted operations, and every run's
metrics, counts and ``context`` line (nproc, python, numpy, BLAS and the
thread settings).  The exit code
is 1 if any run failed a check, the working tree failed more operations
than the base on any workload or any verdict is REGRESSION, else 0.
BENCHMARK.json and perfbench/ are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_rev(rev: str, dest: Path, repo: Path = ROOT) -> None:
    """Write the files of ``rev``, a commit or tree of ``repo``, into the
    new directory ``dest``."""
    dest.mkdir()
    git = subprocess.Popen(["git", "-C", str(repo), "archive", "--format=tar", rev],
                           stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        raise RuntimeError(f"could not export {rev}")


def worktree_tree(index: Path, repo: Path = ROOT) -> str:
    """The id of a tree object holding the working tree of ``repo`` as
    ``git add -A`` would stage it.  It is staged in the new index file
    ``index``, so the repository's own index is left alone."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    for args in (["read-tree", "HEAD"], ["add", "-A"]):
        subprocess.run(["git", "-C", str(repo), *args], env=env, check=True)
    out = subprocess.run(["git", "-C", str(repo), "write-tree"], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def run_once(command, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; returns its final JSON line, with the run's
    ``context`` line (None if it printed none) under "context"."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=tree, capture_output=True, text=True,
                         timeout=4 * seconds + 900)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: no output\n{out.stderr}")
    res = json.loads(lines[-1])
    contexts = [line.split(" ", 1)[1] for line in lines if line.startswith("context ")]
    res["context"] = json.loads(contexts[-1]) if contexts else None
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, better: str, bound: float, more_failed: bool):
    """(summary fields, verdict) for one metric on one workload;
    ``more_failed`` is whether the working tree failed more operations."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    worse = sign * (cmed - bmed) / bmed if bmed else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if worse > bound:
        label = "REGRESSION"
    elif wins >= 0.9 * len(base) and sign * (bmed - cmed) > bq3 - bq1 and not more_failed:
        label = "GAIN"
    elif bmed and (bq3 - bq1) / abs(bmed) > bound and not all_better:
        label = "unresolved"
    else:
        label = "within bound"
    return (bmed, bq1, bq3, cmed, cq1, cq3, wins, -worse), label


def summarize(runs: dict, metrics) -> dict:
    """The summary of one workload: ``runs`` maps "base" and "change" to
    each side's run results (``run_once``) in pair order, and ``metrics``
    is BENCHMARK.json's end-to-end list."""
    ops = {
        side: {
            "failed": sum(r["failed"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "runs": len(rs),
            "runs_failing_a_check": sum(not r["correct"] for r in rs),
        }
        for side, rs in runs.items()
    }
    more_failed = ops["change"]["failed"] > ops["base"]["failed"]
    summary = {"ops": ops, "more_failed": more_failed, "metrics": {}}
    for m in metrics:
        base, change = ([r["metrics"][m["name"]]["value"] for r in runs[side]]
                        for side in ("base", "change"))
        (bmed, bq1, bq3, cmed, cq1, cq3, wins, rel), label = verdict(
            base, change, m["better"], m["bound"], more_failed)
        summary["metrics"][m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "wins": wins,
            "pairs": len(base),
            "better_by": rel,
            "verdict": label,
        }
    return summary


def summary_rows(workload: str, summary: dict) -> list[str]:
    rows = [f"{workload:12s} {side:6s} failed ops {o['failed']}/{o['attempted']}, "
            f"runs failing a check {o['runs_failing_a_check']}/{o['runs']}"
            for side, o in summary["ops"].items()]
    for name, m in summary["metrics"].items():
        b, c = m["base"], m["change"]
        rows.append(
            f"{workload:12s} {name:12s} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']}"
            f"  wins {m['wins']}/{m['pairs']}  better by {m['better_by']:+.1%}"
            f" (bound {m['bound']:.0%})  {m['verdict']}"
        )
    return rows


def run_record(side: str, seed: int, res: dict) -> dict:
    """One run as the JSON report keeps it."""
    return {
        "side": side,
        "seed": seed,
        "correct": res["correct"],
        "failed": res["failed"],
        "attempted": res["attempted"],
        "metrics": {name: m["value"] for name, m in res["metrics"].items()},
        "context": res["context"],
    }


def git_out(*args, repo: Path = ROOT) -> str:
    out = subprocess.run(["git", "-C", str(repo), *args], check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--first-seed", type=int, default=71)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names, metavar="NAME",
                    help=f"run only this workload (repeatable; one of {', '.join(names)}; "
                         "default: all)")
    ap.add_argument("--json", metavar="PATH",
                    help="also write the summary, every run and its context here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    workloads = [w for w in names if args.workload is None or w in args.workload]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    ok = True
    rows = []
    report = {
        "base": args.base,
        "base_commit": git_out("rev-parse", "--verify", f"{args.base}^{{commit}}"),
        "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
        "run_seconds": seconds,
        "command": bench["command"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        trees = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        export_rev(args.base, trees["base"])
        report["change_tree"] = worktree_tree(Path(tmp, "index"))
        export_rev(report["change_tree"], trees["change"])
        # every run moves its side's tree here, so the two sides also share
        # their path: in an A/A run, two paths alone set peak_rss_mb ~0.1 MB
        # apart in every pair
        live = Path(tmp, "tree")
        for workload in workloads:
            runs = {"base": [], "change": []}
            records = []
            for i, seed in enumerate(report["seeds"]):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    trees[side].rename(live)
                    try:
                        res = run_once(bench["command"], live, workload, seed, seconds)
                    finally:
                        live.rename(trees[side])
                    runs[side].append(res)
                    records.append(run_record(side, seed, res))
                    ok &= bool(res["correct"])
                    values = " ".join(
                        f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics
                    )
                    print(f"run {workload} seed={seed} {side:6s} {values} "
                          f"failed={res['failed']}/{res['attempted']} correct={res['correct']}",
                          flush=True)
            summary = summarize(runs, metrics)
            ok &= not summary["more_failed"]
            ok &= all(m["verdict"] != "REGRESSION" for m in summary["metrics"].values())
            rows += summary_rows(workload, summary)
            report["workloads"][workload] = {**summary, "runs": records}
    print(f"\nbase {args.base} vs working tree, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {seconds:g} s per run; "
          "median [quartiles]")
    print("\n".join(rows))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
