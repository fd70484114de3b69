#!/usr/bin/env python3
"""Compare the benchmark of a base revision with the working tree.

    python3 scripts/ab_bench.py BASE_REV [--first-seed 71] [--pairs 10]
                                [--workload NAME ...]

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

Failed operations and failed checks are counted per side.  The exit code
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
    """One ``--trace 0`` run; returns its final JSON line."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=tree, capture_output=True, text=True,
                         timeout=4 * seconds + 900)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: no output\n{out.stderr}")
    return json.loads(lines[-1])


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
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    workloads = [w for w in names if args.workload is None or w in args.workload]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    ok = True
    rows = []
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        trees = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        export_rev(args.base, trees["base"])
        export_rev(worktree_tree(Path(tmp, "index")), trees["change"])
        # every run moves its side's tree here, so the two sides also share
        # their path: in an A/A run, two paths alone set peak_rss_mb ~0.1 MB
        # apart in every pair
        live = Path(tmp, "tree")
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    trees[side].rename(live)
                    try:
                        res = run_once(bench["command"], live, workload, seed, seconds)
                    finally:
                        live.rename(trees[side])
                    runs[side].append(res)
                    ok &= bool(res["correct"])
                    values = " ".join(
                        f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics
                    )
                    print(f"run {workload} seed={seed} {side:6s} {values} "
                          f"failed={res['failed']}/{res['attempted']} correct={res['correct']}",
                          flush=True)
            failed = {}
            for side, rs in runs.items():
                failed[side] = sum(r["failed"] for r in rs)
                attempted = sum(r["attempted"] for r in rs)
                checks = sum(not r["correct"] for r in rs)
                rows.append(f"{workload:12s} {side:6s} failed ops {failed[side]}/{attempted}, "
                            f"runs failing a check {checks}/{len(rs)}")
            more_failed = failed["change"] > failed["base"]
            ok &= not more_failed
            for m in metrics:
                base = [r["metrics"][m["name"]]["value"] for r in runs["base"]]
                change = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
                (bmed, bq1, bq3, cmed, cq1, cq3, wins, rel), label = verdict(
                    base, change, m["better"], m["bound"], more_failed)
                ok &= label != "REGRESSION"
                rows.append(
                    f"{workload:12s} {m['name']:12s} base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}]"
                    f"  change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] {m['unit']}"
                    f"  wins {wins}/{len(base)}  better by {rel:+.1%}"
                    f" (bound {m['bound']:.0%})  {label}"
                )
    print(f"\nbase {args.base} vs working tree, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {seconds:g} s per run; "
          "median [quartiles]")
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
