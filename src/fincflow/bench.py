"""Benchmark harness (timing protocol, CSV reports) and the correctness
check suite behind the ``check`` subcommand.

Timing protocol: every configuration is run 11 times and the first run is
discarded as warm-up; mean, sample standard deviation, and the 95%
confidence half-width (t distribution, 9 degrees of freedom) are computed
over runs 2-11.  The clock is monotonic with nanosecond resolution and
wraps only the inversion call, never allocation or setup.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from .errors import FincError, TooLargeForDense
from .invconv import (
    DENSE_CAP,
    InvertStats,
    MaskedKernel,
    PaddedConvBlock,
    apply_anchor_mask,
    build_conv_matrix,
    canonical_permutation,
    dense_invert,
    pcb_forward,
    pcb_invert_reference,
    pcb_invert_wavefront,
    random_masked_kernel,
    random_unit,
    unit_forward,
    unit_invert,
)
from .tensor import Orientation, channel_split

CSV_HEADER = "n,c,k,batch,workers,strategy,mean_s,std_s,ci95_s,phases,madds"

RUNS_TOTAL = 11
RUNS_DISCARDED = 1


def ci95_half_width(values: np.ndarray) -> float:
    """t-based 95% half-width; dof = len(values) - 1."""
    n = len(values)
    if n < 2:
        return 0.0
    t = float(scipy_stats.t.ppf(0.975, n - 1))
    return t * float(np.std(values, ddof=1)) / math.sqrt(n)


@dataclass
class BenchReport:
    n: int
    c: int
    k: int
    batch: int
    workers: int
    strategy: str
    runs_s: list[float] = field(default_factory=list)  # all 11, first is warm-up
    phases: int = 0
    madds: int = 0

    @property
    def kept(self) -> np.ndarray:
        return np.asarray(self.runs_s[RUNS_DISCARDED:])

    @property
    def mean_s(self) -> float:
        return float(np.mean(self.kept))

    @property
    def std_s(self) -> float:
        kept = self.kept
        return float(np.std(kept, ddof=1)) if len(kept) > 1 else 0.0

    @property
    def ci95_s(self) -> float:
        return ci95_half_width(self.kept)

    def csv_row(self) -> str:
        return "%d,%d,%d,%d,%d,%s,%.9e,%.9e,%.9e,%d,%d" % (
            self.n,
            self.c,
            self.k,
            self.batch,
            self.workers,
            self.strategy,
            self.mean_s,
            self.std_s,
            self.ci95_s,
            self.phases,
            self.madds,
        )


def _enumerate_madds(h: int, w: int, k: int, c: int, batch: int, groups: int = 1) -> int:
    """In-bounds non-anchor taps over all output elements (the same count
    the wavefront instrumentation gathers)."""
    per_pixel = 0
    for i in range(h):
        for j in range(w):
            per_pixel += min(k, i + 1) * min(k, j + 1) - 1
    return per_pixel * c * c * batch * groups


def _timed(fn) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e9


def bench_pcb(
    n: int,
    c: int,
    k: int,
    batch: int,
    workers: int,
    strategy: str,
    seed: int = 0,
    dtype=np.float32,
    runs: int = RUNS_TOTAL,
) -> BenchReport:
    """Time one inversion strategy on an untrained random block."""
    rng = np.random.default_rng(seed)
    pcb = PaddedConvBlock(random_masked_kernel(c, k, Orientation.TL, rng, dtype))
    y = rng.normal(size=(batch, c, n, n)).astype(dtype)
    report = BenchReport(n, c, k, batch, workers, strategy)
    if strategy == "reference":
        fn = lambda: pcb_invert_reference(y, pcb)
        report.phases = n * n  # sequential raster steps per image
        report.madds = _enumerate_madds(n, n, k, c, batch)
    elif strategy == "wavefront":
        fn = lambda: pcb_invert_wavefront(y, pcb, workers=workers)
        st = InvertStats()
        pcb_invert_wavefront(y, pcb, workers=workers, stats=st)
        report.phases = st.phases
        report.madds = st.madds
    elif strategy == "dense":
        if n * n * c > DENSE_CAP:
            raise TooLargeForDense(f"dense strategy refused for H*W*C = {n * n * c}")
        fn = lambda: dense_invert(y, pcb)
        side = n * n * c
        report.phases = side  # back-substitution rows per image
        report.madds = batch * side * (side - 1) // 2
    else:
        raise FincError(f"unknown strategy {strategy!r}")
    for _ in range(runs):
        report.runs_s.append(_timed(fn))
    return report


def bench_unit(
    n: int,
    c: int,
    k: int,
    batch: int,
    workers: int,
    strategy: str,
    seed: int = 0,
    dtype=np.float32,
    runs: int = RUNS_TOTAL,
) -> BenchReport:
    """Time a whole four-block unit (C divisible by 4); the reference
    strategy inverts the four blocks sequentially."""
    rng = np.random.default_rng(seed)
    unit = random_unit(c, k, rng, dtype)
    y = rng.normal(size=(batch, c, n, n)).astype(dtype)
    report = BenchReport(n, c, k, batch, workers, f"unit-{strategy}")
    if strategy == "reference":

        def fn():
            for q, blk in zip(channel_split(y, 4), unit.blocks):
                pcb_invert_reference(q, blk)

        report.phases = n * n
        report.madds = _enumerate_madds(n, n, k, c // 4, batch, groups=4)
    elif strategy == "wavefront":
        fn = lambda: unit_invert(y, unit, workers=workers)
        st = InvertStats()
        unit_invert(y, unit, workers=workers, stats=st)
        report.phases = st.phases
        report.madds = st.madds
    else:
        raise FincError(f"unknown unit strategy {strategy!r}")
    for _ in range(runs):
        report.runs_s.append(_timed(fn))
    return report


def write_gnuplot(reports: list[BenchReport], path) -> None:
    """Emit a gnuplot-compatible data file: one index block per strategy,
    columns n, mean_s, ci95_s."""
    by_strategy: dict[str, list[BenchReport]] = {}
    for r in reports:
        by_strategy.setdefault(r.strategy, []).append(r)
    with open(path, "w") as fh:
        fh.write("# inversion wall time\n# columns: n mean_s ci95_s\n")
        for strategy, rows in by_strategy.items():
            fh.write(f'\n\n# strategy "{strategy}"\n')
            for r in sorted(rows, key=lambda r: r.n):
                fh.write("%d %.9e %.9e\n" % (r.n, r.mean_s, r.ci95_s))


def measure_scaling(
    sizes=(32, 64, 128),
    c: int = 4,
    k: int = 3,
    batch: int = 1,
    workers: int = 8,
    runs: int = 10,
    seed: int = 0,
) -> dict:
    """Median wall times of the sequential raster inversion vs the
    wavefront across doubling sizes, plus growth ratios.

    The wavefront solves each of its H+W-1 anti-diagonals with one
    batched gather and contraction; ``workers`` is passed through for
    API stability and does not change its result."""
    rng = np.random.default_rng(seed)
    medians: dict[str, dict[int, float]] = {"reference": {}, "wavefront": {}}
    for n in sizes:
        pcb = PaddedConvBlock(random_masked_kernel(c, k, Orientation.TL, rng, np.float32))
        y = rng.normal(size=(batch, c, n, n)).astype(np.float32)
        for strategy, fn in (
            ("reference", lambda: pcb_invert_reference(y, pcb)),
            ("wavefront", lambda: pcb_invert_wavefront(y, pcb, workers=workers)),
        ):
            times = [_timed(fn) for _ in range(runs + 1)][1:]  # drop warm-up
            medians[strategy][n] = float(np.median(times))
    ratios = {}
    for strategy in medians:
        ratios[strategy] = {
            f"{a}->{b}": medians[strategy][b] / medians[strategy][a]
            for a, b in zip(sizes[:-1], sizes[1:])
        }
    return {"medians": medians, "ratios": ratios, "workers": workers}


# ---------------------------------------------------------------------------
# check suite


@dataclass
class CheckResult:
    name: str
    max_err: float
    limit: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name:<34} max_err={self.max_err:.3e}  limit={self.limit:.3e}{note}"


def run_checks(
    size: int = 16,
    channels: int = 4,
    k: int = 3,
    workers: int = 4,
    seed: int = 0,
    inject_fault: str | None = None,
) -> list[CheckResult]:
    """Round-trip, dense-oracle, triangularity, phase-count, determinism,
    and gradient checks at a configurable size."""
    results: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    pcb = PaddedConvBlock(random_masked_kernel(channels, k, Orientation.TL, rng))
    if inject_fault == "anchor":
        w = pcb.kernel.weights.copy()
        ah, aw = pcb.kernel.anchor
        w[0, 0, ah, aw] = 1.1
        pcb = PaddedConvBlock(MaskedKernel(w, Orientation.TL))

    # round trip, f64 and f32
    x64 = rng.normal(size=(2, channels, size, size))
    err64 = float(
        np.max(np.abs(pcb_invert_wavefront(pcb_forward(x64, pcb), pcb, workers) - x64))
    )
    results.append(CheckResult("round trip f64", err64, 1e-9, err64 <= 1e-9))
    pcb32 = PaddedConvBlock(MaskedKernel(pcb.kernel.weights.astype(np.float32), Orientation.TL))
    x32 = x64.astype(np.float32)
    err32 = float(
        np.max(np.abs(pcb_invert_wavefront(pcb_forward(x32, pcb32), pcb32, workers) - x32))
    )
    results.append(CheckResult("round trip f32", err32, 1e-4, err32 <= 1e-4))

    # triple oracle (dense capped)
    y = rng.normal(size=(1, channels, size, size))
    if size * size * channels <= DENSE_CAP:
        wf = pcb_invert_wavefront(y, pcb, workers)
        ref = pcb_invert_reference(y, pcb)
        dns = dense_invert(y, pcb)
        err = float(
            max(
                np.max(np.abs(wf - ref)),
                np.max(np.abs(wf - dns)),
                np.max(np.abs(ref - dns)),
            )
        )
        results.append(CheckResult("triple oracle agreement", err, 1e-9, err <= 1e-9))
    else:
        wf = pcb_invert_wavefront(y, pcb, workers)
        ref = pcb_invert_reference(y, pcb)
        err = float(np.max(np.abs(wf - ref)))
        results.append(
            CheckResult(
                "wavefront vs reference",
                err,
                1e-9,
                err <= 1e-9,
                note=f"dense skipped: H*W*C={size * size * channels} > {DENSE_CAP}",
            )
        )

    # triangularity, unit diagonal, det == 1 (exact)
    tri_h = tri_w = min(size, 8)
    m = build_conv_matrix(pcb, tri_h, tri_w)
    perm = canonical_permutation(Orientation.TL, tri_h, tri_w, channels)
    mc = m[np.ix_(perm, perm)]
    upper = float(np.max(np.abs(np.triu(mc, 1))))
    diag_dev = float(np.max(np.abs(np.diag(mc) - 1.0)))
    det = float(np.prod(np.diag(mc)))
    tri_err = max(upper, diag_dev, abs(det - 1.0))
    results.append(
        CheckResult("triangular, unit diagonal, det=1", tri_err, 0.0, tri_err == 0.0)
    )

    # phase count and per-element work bound
    st = InvertStats()
    pcb_invert_wavefront(y, pcb, workers, stats=st)
    phase_dev = abs(st.phases - (2 * size - 1))
    results.append(
        CheckResult("barrier phases == H+W-1", float(phase_dev), 0.0, phase_dev == 0)
    )
    excess = max(0, st.max_element_madds - k * k * channels)
    results.append(
        CheckResult("per-element madds <= k^2*C", float(excess), 0.0, excess == 0)
    )

    # worker-count determinism (bit-exact)
    base = pcb_invert_wavefront(y, pcb, workers=1)
    det_err = 0.0
    for nw in (2, 4, 8):
        other = pcb_invert_wavefront(y, pcb, workers=nw)
        if not np.array_equal(base, other):
            det_err = max(det_err, float(np.max(np.abs(base - other))))
    results.append(
        CheckResult("worker-count determinism", det_err, 0.0, det_err == 0.0)
    )

    # unit round trip (channels divisible by 4, else widen)
    uc = channels if channels % 4 == 0 else 4 * max(1, channels // 4 + 1)
    unit = random_unit(uc, k, rng)
    xu = rng.normal(size=(1, uc, size, size))
    yu, _ = unit_forward(xu, unit)
    uerr = float(np.max(np.abs(unit_invert(yu, unit, workers) - xu)))
    results.append(CheckResult("unit round trip f64", uerr, 1e-9, uerr <= 1e-9))

    # flow gradient check on a seeded toy model
    from .flow import FlowModel, ModelConfig

    model = FlowModel(
        ModelConfig(4, 4, 4, 1, 1, kernel_size=3, hidden=4, dtype="f64"),
        np.random.default_rng(seed + 1),
        data_init=False,
    )
    for name, p in model.named_params():
        p.value = p.value + 0.05 * np.random.default_rng(seed + 2).standard_normal(
            p.value.shape
        )
    for p, orientation in model.unit_params():
        p.value = apply_anchor_mask(MaskedKernel(p.value, orientation)).weights
    gerr = _model_gradient_error(model, seed + 3)
    results.append(CheckResult("flow gradient check", gerr, 1e-3, gerr <= 1e-3))

    return results


def _model_gradient_error(model, seed, eps=1e-4, floor=1e-6) -> float:
    rng = np.random.default_rng(seed)
    cfg = model.config
    x = rng.normal(size=(2, cfg.channels, cfg.height, cfg.width))
    n = x.shape[0]

    def loss():
        _, logdet, logp = model.forward(x)
        return -(logp + logdet) / n

    model.zero_grad()
    loss()
    model.backward()
    worst = 0.0
    for _, p in model.named_params():
        analytic = p.grad.copy()
        flat = p.value.ravel()
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            fd[i] = (up - down) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic.ravel()), np.abs(fd)), floor)
        worst = max(worst, float(np.max(np.abs(analytic.ravel() - fd) / denom)))
    return worst
