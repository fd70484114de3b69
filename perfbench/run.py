#!/usr/bin/env python3
"""End-to-end benchmark of fincflow: train, sample and reconstruct.

Run from the repository root:

    python3 perfbench/run.py --workload {train,sample,reconstruct} \\
        --seed N --seconds S --trace {0,1}

The benchmark drives the public API of the package under ``src/`` from
outside it, one caller waiting on each operation (a closed loop).  Every
operation's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics img_per_s, op_p50_s,
op_tail_s, setup_s, peak_rss_mb and error_rate.  The JSON result carries
op_tail_s, setup_s and peak_rss_mb (error_rate through
``attempted``/``failed``); see ``end_to_end_metrics`` for why.  No tracing
wrapper is installed.

``--trace 1`` prints the per-layer metrics: ``tracing.Tracer`` wraps the
package's layer boundaries at run time.  Operations alternate between
untraced and traced, and ``trace.overhead_pct`` compares the throughput
of the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the run context, each metric with its unit, and every check.
The exit code is 0 only if every check passed.
"""

import os

# Fixed BLAS threading, set before numpy loads BLAS: one thread per call
# leaves the cores to the sample workload's worker pool.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import GLUE, Tracer, unit_invert_madds  # noqa: E402
from workloads import TEMPERATURE, WORKLOADS, stream  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s is the median of this many set-ups: the run's own and the rest
# in fresh processes started after each quarter of the timed loop, so that
# work cached at module level is paid by every set-up and the set-ups
# sample the host's slow and fast phases like the operations do.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# Layer boundaries reported per operation as <name>.calls and <name>.self_ms.
# Self times of these partition the traced time, so their sum is coverage.
OP_BOUNDARIES = (
    "invconv.unit_forward", "invconv.unit_backward", "invconv.unit_invert",
    "flow.Conv2d.forward", "flow.Conv2d.backward",
    "flow.Coupling.forward", "flow.Coupling.inverse", "flow.Coupling.backward",
    "flow.ActNorm.forward", "flow.ActNorm.inverse", "flow.ActNorm.backward",
    "flow.Inv1x1.forward", "flow.Inv1x1.inverse", "flow.Inv1x1.backward",
    "flow.Split.forward", "flow.Split.sample_z", "flow.Split.backward", "flow.Squeeze",
    "flow.FlowModel.forward", "flow.FlowModel.inverse", "flow.FlowModel.sample",
    "flow.FlowModel.backward",
    "tensor", "train.train_step", "train.Adam.step", "train.anchor_mask", "train.dequantize",
)
# unit_invert split by pyramid level (spatial size of its input).
INVERT_LEVELS = ("invconv.unit_invert.L0", "invconv.unit_invert.L1")
CONV_BOUNDARIES = ("flow.Conv2d.forward", "flow.Conv2d.backward")


def import_fincflow():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import fincflow.flow
    import fincflow.invconv
    import fincflow.train

    found = Path(fincflow.__file__).resolve().parent
    if found != SRC / "fincflow":
        raise SystemExit(f"error: imported fincflow from {found}, expected {SRC / 'fincflow'}")
    return types.SimpleNamespace(
        flow=fincflow.flow, invconv=fincflow.invconv, train=fincflow.train
    )


def calibrate_ms() -> float:
    """Median time of a fixed pure-numpy kernel (the 3x3 einsum loop of a
    convolution), so that a run taken in a slow phase of the host shows."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 16, 34, 34), dtype=np.float32)
    w = rng.standard_normal((16, 16), dtype=np.float32)
    times = []
    for _ in range(9):
        t0 = perf_counter()
        for p in range(3):
            for q in range(3):
                np.einsum("oc,nchw->nohw", w, x[:, :, p : p + 32, q : q + 32])
        times.append(perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def run_context(args, nproc: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "dtype": "f32",
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def git_rev():
    """HEAD of the repository this checkout is, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    """Digest of the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fincflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up and the closed loop


def timed_setup(wl, seed, workdir, tracer=None):
    """Import, build inputs and model, and run the warm-up operation.

    Returns (seconds, state).  The clock starts before the package import,
    so work moved to import time or into a first call shows as set-up.
    """
    t0 = perf_counter()
    fc = import_fincflow()
    if tracer is not None:
        tracer.install(fc, wl.level_of_height())
        tracer.recording = True
    state = wl.setup(fc, seed, workdir)
    wl.op(state, wl.prepare(state, 0))
    return perf_counter() - t0, state


def fresh_setup_seconds(args) -> float:
    """Set-up time measured in a new process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{out.stderr}")
    return float(json.loads(out.stdout.splitlines()[-1])["setup_s"])


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    images: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def img_per_s(self) -> float:
        return self.images / self.busy_s


def attempt(wl, state, args, loop: Loop, tracer=None):
    """Run one operation and check its output outside the timed region.

    A raised exception and an output that fails its check both count as a
    failed operation.
    """
    if tracer is not None:
        tracer.recording = True
    t0 = perf_counter()
    try:
        out = wl.op(state, args)
        error = None
    except Exception as exc:  # the loop must go on and count the failure
        error = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    loop.latencies.append(elapsed)
    if error is None and not wl.check(state, args, out):
        error = "output failed its check"
    if error is None:
        loop.images += wl.images_per_op
    else:
        loop.failed += 1
        loop.errors.append(error)


def run_loop(wl, state, seconds, tracer=None, between=None) -> tuple[Loop, Loop]:
    """Closed loop: operation i+1 starts when operation i and its check
    have finished, until ``seconds`` of wall time have passed.

    Returns (untraced, traced) operations.  With a tracer, operations
    alternate between the two and the wrappers are installed only around
    the traced ones, so both halves see the same phases of the host.
    ``between`` is called after each quarter of the loop's time, which
    does not count the time ``between`` takes.
    """
    loops = (Loop(), Loop())
    start = perf_counter()
    i = 1
    quarters_done = 0
    while (elapsed := perf_counter() - start) < seconds:
        if between is not None and elapsed >= (quarters_done + 1) * seconds / 4:
            t0 = perf_counter()
            between()
            start += perf_counter() - t0  # not part of the loop's time
            quarters_done += 1
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install(state.fc, wl.level_of_height())
        attempt(wl, state, wl.prepare(state, i), loops[traced], tracer if traced else None)
        if traced:
            tracer.uninstall()
        i += 1
    return loops


def tail_latency(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; the maximum below 11 samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return 100, lat[-1]
    pct = 100 * (n - 10) // n
    return pct, lat[max(1, math.ceil(pct * n / 100)) - 1]


# ---------------------------------------------------------------------------
# checks outside the timed region


def clone(state, workdir, name):
    fc = state.fc
    path = f"{workdir}/{name}.ckpt"
    fc.train.checkpoint_save(state.model, path)
    return fc.train.checkpoint_load(path)


def invariant_checks(wl, state, nproc):
    """Exact invariants of the wavefront inverse and of the worker pool."""
    fc = state.fc
    k = state.model.config.kernel_size
    results = []
    for lvl, (channels, side) in enumerate(wl.unit_shapes()):
        n = 2
        rng = stream(state.seed, 3, lvl)
        unit = fc.invconv.random_unit(channels, k, rng, np.float32)
        y = rng.standard_normal((n, channels, side, side)).astype(np.float32)
        st = fc.invconv.InvertStats()
        fc.invconv.unit_invert(y, unit, workers=1, stats=st)
        madds = unit_invert_madds(n, channels, side, side, k)
        bound = k * k * (channels // 4)
        results += [
            (f"L{lvl} phases == H+W-1 ({st.phases} vs {2 * side - 1})",
             st.phases == 2 * side - 1),
            (f"L{lvl} max_element_madds <= k^2*C ({st.max_element_madds} vs {bound})",
             st.max_element_madds <= bound),
            (f"L{lvl} closed-form madds == InvertStats ({madds} vs {st.madds})",
             st.madds == madds),
        ]
    base = state.model.sample(wl.det_batch, TEMPERATURE, stream(state.seed, 4), workers=1)
    for workers in sorted({2, nproc} - {1}):
        other = state.model.sample(
            wl.det_batch, TEMPERATURE, stream(state.seed, 4), workers=workers
        )
        results.append((f"sample of {wl.det_batch} bit-identical at workers=1 and {workers}",
                        bool(np.array_equal(base, other))))
    return results


def checker_self_tests(wl, state, workdir):
    """The output check must count a broken operation as failed."""
    fc = state.fc
    broken_anchor = clone(state, workdir, "anchor")
    p, orientation = next(broken_anchor.unit_params())
    ah, aw = fc.invconv.MaskedKernel(p.value, orientation).anchor
    w = p.value.copy()
    w[0, 0, ah, aw] = 1.1  # as `fincflow check --inject anchor` does
    p.value = w
    nan_model = clone(state, workdir, "nan")
    bias = next(p for name, p in nan_model.named_params() if name.endswith("actnorm.bias"))
    bias.value = np.full_like(bias.value, np.nan)

    cases = [("NaN-returning operation counts as failed", nan_model)]
    # train_step re-applies the anchor mask, so only the inverse-side
    # workloads can observe an anchor pushed off identity.
    if wl.name != "train":
        cases.append(("off-identity anchor counts as failed", broken_anchor))
    results = []
    for name, model in cases:
        loop = Loop()
        broken = wl.with_model(state, model)
        attempt(wl, broken, wl.prepare(broken, 0), loop)
        results.append((name, loop.failed == 1))
    return results


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(loop, setups, peak_rss_mb):
    """(metrics, printed-only metrics, notes), each metric a (value, unit).

    Throughput and median latency are printed only.  On a shared 2-core
    host whose speed switches between a fast and a slow level for seconds
    to minutes at a time, their spread over 10 seeds (interquartile range
    over median) reached 0.3-0.45, above 0.25, the largest regression
    bound BENCHMARK.json may set.  The tail latency sits on the slow level
    in nearly every run; its spread stayed within 0.05-0.18.
    """
    pct, tail = tail_latency(loop.latencies)
    metrics = {
        "op_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    printed = {
        "img_per_s": (loop.img_per_s, "img/s"),
        "op_p50_s": (statistics.median(loop.latencies), "s"),
    }
    notes = {
        "op_tail_s": f"p{pct} of {loop.attempted} operations",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
    }
    return metrics, printed, notes


def per_layer_metrics(sums, setup_sums, loop, untraced):
    ops = loop.attempted
    metrics = {}

    def rate(num, seconds):
        return num / seconds if seconds else 0.0

    def calls_and_self(name, s, per, unit):
        metrics[f"{name}.calls"] = (s.get("calls", 0) / per, f"calls/{unit}")
        metrics[f"{name}.self_ms"] = (1000 * s.get("self_s", 0.0) / per, f"ms/{unit}")

    for name in OP_BOUNDARIES + INVERT_LEVELS:
        calls_and_self(name, sums.get(name, {}), ops, "op")
    calls_and_self("train.checkpoint_load", setup_sums.get("train.checkpoint_load", {}), 1, "setup")
    for name in ("invconv.unit_invert",) + INVERT_LEVELS:
        s = sums.get(name, {})
        phases, self_s = s.get("phases", 0), s.get("self_s", 0.0)
        metrics[f"{name}.phases"] = (phases / ops, "phases/op")
        metrics[f"{name}.us_per_phase"] = (1e6 * rate(self_s, phases), "us")
    for name in ("invconv.unit_invert",) + INVERT_LEVELS + CONV_BOUNDARIES:
        s = sums.get(name, {})
        metrics[f"{name}.madds"] = (s.get("madds", 0) / ops, "madd/op")
        metrics[f"{name}.madd_per_s"] = (rate(s.get("madds", 0), s.get("self_s", 0.0)), "madd/s")

    busy = loop.busy_s
    covered = sum(sums[name]["self_s"] for name in OP_BOUNDARIES if name in sums)
    glue = sum(sums[name]["self_s"] for name in GLUE if name in sums)
    metrics["trace.coverage_pct"] = (100 * covered / busy, "%")
    metrics["trace.glue_pct"] = (100 * glue / busy, "%")
    overhead = 100 * (untraced.img_per_s - loop.img_per_s) / untraced.img_per_s
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fincflow" / "__init__.py").is_file():
        print(f"error: no fincflow package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_only:
            setup_s, _ = timed_setup(wl, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        calib_start = calibrate_ms()
        tracer = Tracer() if args.trace else None
        setup_s, state = timed_setup(wl, args.seed, workdir, tracer)
        if tracer is None:
            setups = [setup_s]
            loop, _ = run_loop(wl, state, args.seconds,
                               between=lambda: setups.append(fresh_setup_seconds(args)))
            while len(setups) < SETUP_SAMPLES:
                setups.append(fresh_setup_seconds(args))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, printed, notes = end_to_end_metrics(loop, setups, peak_rss_mb)
            attempted, failed = loop.attempted, loop.failed
        else:
            tracer.recording = False
            setup_sums = tracer.take()
            tracer.uninstall()
            untraced, loop = run_loop(wl, state, args.seconds, tracer)
            metrics = per_layer_metrics(tracer.take(), setup_sums, loop, untraced)
            printed, notes = {}, {}
            attempted = untraced.attempted + loop.attempted
            failed = untraced.failed + loop.failed
            loop.errors = untraced.errors + loop.errors
        checks = invariant_checks(wl, state, nproc) + checker_self_tests(wl, state, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = calibrate_ms()

    context = run_context(args, nproc)
    context.update(calib_start_ms=round(calib_start, 4), calib_end_ms=round(calib_end, 4),
                   operations=attempted)
    print("context " + json.dumps(context))
    for name, (value, unit) in {**metrics, **printed}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(f"metric error_rate = {failed / attempted:.6g} 1  ({failed} failed of {attempted})")
    for error in loop.errors[:5]:
        print(f"failed operation: {error}")
    for name, ok in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}")
    correct = failed == 0 and all(ok for _, ok in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
