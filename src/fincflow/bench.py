"""Benchmark harness (timing protocol, CSV reports) and the correctness
check suite behind the ``check`` subcommand.

Timing protocol: ``time_rounds`` runs every prepared case once per round
for 11 rounds and discards the first round as warm-up; mean, sample
standard deviation, and the 95% confidence half-width (t distribution, 9
degrees of freedom) are computed over rounds 2-11.  The clock is
monotonic with nanosecond resolution and wraps only the inversion call,
never allocation or setup.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FincError, TooLargeForDense
from .invconv import (
    DENSE_CAP,
    InvertStats,
    MaskedKernel,
    apply_anchor_mask,
    build_conv_matrix,
    dense_invert,
    pcb_forward,
    pcb_invert_reference,
    pcb_invert_wavefront,
    random_masked_kernel,
    random_unit,
    unit_forward,
    unit_invert,
)
from .tensor import Orientation

# Every strategy runs on the calling thread, so the workers column always reads 1.
CSV_HEADER = "n,c,k,batch,workers,strategy,mean_s,std_s,ci95_s,phases,madds"

RUNS_TOTAL = 11
RUNS_DISCARDED = 1


def ci95_half_width(values: np.ndarray) -> float:
    """t-based 95% half-width; dof = len(values) - 1."""
    n = len(values)
    if n < 2:
        return 0.0
    # imported here: scipy takes most of the CLI's start-up time, and only
    # bench reports and the dense oracle use it
    from scipy import stats

    t = float(stats.t.ppf(0.975, n - 1))
    return t * float(np.std(values, ddof=1)) / math.sqrt(n)


@dataclass
class BenchReport:
    n: int
    c: int
    k: int
    batch: int
    strategy: str
    runs_s: list[float] = field(default_factory=list)  # one per round, first is warm-up
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
        return "%d,%d,%d,%d,1,%s,%.9e,%.9e,%.9e,%d,%d" % (
            self.n,
            self.c,
            self.k,
            self.batch,
            self.strategy,
            self.mean_s,
            self.std_s,
            self.ci95_s,
            self.phases,
            self.madds,
        )


def csv_text(reports: list[BenchReport]) -> str:
    """The bench CSV: the header, then one row per report."""
    return "\n".join([CSV_HEADER, *(r.csv_row() for r in reports)]) + "\n"


def _timed(fn) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e9


def time_rounds(cases, rounds: int = RUNS_TOTAL) -> list[BenchReport]:
    """Time prepared ``(report, call)`` cases in interleaved rounds: each
    round times every case once, in list order, and appends the time to
    its report's ``runs_s``.  Returns the reports."""
    for _ in range(rounds):
        for report, fn in cases:
            report.runs_s.append(_timed(fn))
    return [report for report, _ in cases]


def prepare_case(n, c, k, batch, strategy, seed, dtype, unit: bool):
    """One inversion strategy on an untrained random block or unit: its
    report, with phases and madds but no runs yet, and the call to time.
    A block is a one-group problem; the reference strategy inverts the
    groups one after another."""
    rng = np.random.default_rng(seed)
    if unit:
        target = random_unit(c, k, rng, dtype)
        blocks, invert, prefix = target.blocks, unit_invert, "unit-"
    else:
        target = random_masked_kernel(c, k, Orientation.TL, rng, dtype)
        blocks, invert, prefix = [target], pcb_invert_wavefront, ""
    y = rng.normal(size=(batch, c, n, n)).astype(dtype)
    report = BenchReport(n, c, k, batch, prefix + strategy)

    def wavefront_stats():
        st = InvertStats()
        invert(y, target, stats=st)
        return st

    if strategy == "reference":

        def fn():
            for q, blk in zip(np.split(y, len(blocks), 1), blocks):
                pcb_invert_reference(q, blk)

        report.phases = n * n  # sequential raster steps per image
        # the raster solve does the wavefront's multiply-adds in another order
        report.madds = wavefront_stats().madds
    elif strategy == "wavefront":
        fn = lambda: invert(y, target)
        st = wavefront_stats()
        report.phases = st.phases
        report.madds = st.madds
    elif strategy == "dense" and not unit:
        side = n * n * c
        if side > DENSE_CAP:
            raise TooLargeForDense(f"dense strategy refused for H*W*C = {side}")
        fn = lambda: dense_invert(y, target)
        report.phases = side  # back-substitution rows per image
        report.madds = batch * side * (side - 1) // 2
    else:
        raise FincError(f"unknown {'unit ' if unit else ''}strategy {strategy!r}")
    return report, fn


def bench_invert(
    n: int,
    c: int,
    k: int,
    batch: int,
    strategy: str,
    *,
    unit: bool = False,
    seed: int = 0,
    dtype=np.float32,
    runs: int = RUNS_TOTAL,
) -> BenchReport:
    """Time one inversion strategy on an untrained random block or, with
    ``unit``, a four-block unit (C divisible by 4) whose reference
    strategy inverts the blocks one after another."""
    return time_rounds([prepare_case(n, c, k, batch, strategy, seed, dtype, unit)], runs)[0]


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
    runs: int = 10,
    seed: int = 0,
) -> dict:
    """Wall times of the sequential raster inversion vs the wavefront on
    one image across doubling sizes: the reports of both strategies at
    every size (size-major, the bench CSV's row order), their medians and
    growth ratios.  ``time_rounds`` times every case once in each of
    runs+1 rounds, the first discarded; a ratio is the median over rounds
    of one round's ratio of times, so a change of the host's clock speed
    between rounds slows both sides alike.  The wavefront solves each of
    its H+W-1 anti-diagonals with one batched gather and contraction."""
    strategies = ("reference", "wavefront")
    cases = [
        prepare_case(n, c, k, 1, s, seed, np.float32, unit=False)
        for n in sizes
        for s in strategies
    ]
    reports = time_rounds(cases, runs + 1)
    kept = {(r.strategy, r.n): r.kept for r in reports}
    pairs = list(zip(sizes[:-1], sizes[1:]))
    return {
        "reports": reports,
        "medians": {s: {n: float(np.median(kept[s, n])) for n in sizes} for s in strategies},
        "ratios": {
            s: {f"{a}->{b}": float(np.median(kept[s, b] / kept[s, a])) for a, b in pairs}
            for s in strategies
        },
    }


# ---------------------------------------------------------------------------
# check suite


@dataclass
class CheckResult:
    name: str
    max_err: float
    limit: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.max_err <= self.limit

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return f"{status}  {self.name:<44} max_err={self.max_err:.3e}  limit={self.limit:.3e}{note}"


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def run_checks(
    size: int = 16,
    channels: int = 4,
    k: int = 3,
    seed: int = 0,
    inject_fault: str | None = None,
) -> list[CheckResult]:
    """Round-trip, dense-oracle, triangularity, phase-count, determinism,
    and gradient checks at a configurable size: a table of (name, limit,
    error function) rows over one shared set-up."""
    from .flow import CHUNK_IMAGES, TRAIN_CHUNK_IMAGES, FlowModel, ModelConfig
    from .train import Adam, TrainConfig, train_step

    rng = np.random.default_rng(seed)
    pcb = random_masked_kernel(channels, k, Orientation.TL, rng)
    if inject_fault == "anchor":
        w = pcb.weights.copy()
        ah, aw = pcb.anchor
        w[0, 0, ah, aw] = 1.1
        pcb = MaskedKernel(w, Orientation.TL)
    x64 = rng.normal(size=(2, channels, size, size))
    y = rng.normal(size=(1, channels, size, size))
    uc = 4 * -(-channels // 4)  # a unit needs channels divisible by 4: widen
    unit = random_unit(uc, k, rng)
    xu = rng.normal(size=(1, uc, size, size))
    # a small seeded f64 flow, off its identity initialisation
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

    def round_trip(kern, x):
        return _max_abs(pcb_invert_wavefront(pcb_forward(x, kern), kern) - x)

    def oracle():
        wf = pcb_invert_wavefront(y, pcb)
        ref = pcb_invert_reference(y, pcb)
        if size * size * channels > DENSE_CAP:
            note = f"dense skipped: H*W*C={size * size * channels} > {DENSE_CAP}"
            return "wavefront vs reference", _max_abs(wf - ref), note
        dns = dense_invert(y, pcb)
        err = max(_max_abs(wf - ref), _max_abs(wf - dns), _max_abs(ref - dns))
        return "triple oracle agreement", err, ""

    def triangular():
        side = min(size, 8)
        m = build_conv_matrix(pcb, side, side)  # HWC order: TL's raster order
        diag = np.diag(m)
        return max(_max_abs(np.triu(m, 1)), _max_abs(diag - 1.0), abs(np.prod(diag) - 1.0))

    def unit_round_trip():
        yu, _ = unit_forward(xu, unit)
        return _max_abs(unit_invert(yu, unit) - xu)

    def worker_determinism():
        # workers only matters to batches of more than CHUNK_IMAGES images,
        # which run on min(workers, chunks) lanes: 9 chunks fill 8 lanes
        def draw(nw):
            rng = np.random.default_rng(seed + 4)
            return model.sample(8 * CHUNK_IMAGES + 1, rng=rng, workers=nw)

        base = draw(1)
        return max(_max_abs(draw(nw) - base) for nw in (2, 4, 8))

    def train_determinism():
        # a train step runs chunks of at most TRAIN_CHUNK_IMAGES: 9 fill 8 lanes
        c = model.config
        shape = (8 * TRAIN_CHUNK_IMAGES + 1, c.channels, c.height, c.width)
        batch = np.random.default_rng(seed + 5).integers(0, 256, shape, dtype=np.uint8)

        def step(nw):
            m = copy.deepcopy(model)
            cfg = TrainConfig(seed=seed, workers=nw)
            out = train_step(m, batch, cfg, Adam(m.named_params(), cfg.lr),
                             np.random.default_rng(seed + 6))
            values = [p.value.ravel() for _, p in m.named_params()]
            return np.concatenate([[out["nll"], out["grad_norm"]], *values])

        base = step(1)
        return max(_max_abs(step(nw) - base) for nw in (2, 4, 8))

    pcb32 = MaskedKernel(pcb.weights.astype(np.float32), Orientation.TL)
    st = InvertStats()
    pcb_invert_wavefront(y, pcb, stats=st)
    checks = (
        ("round trip f64", 1e-9, lambda: round_trip(pcb, x64)),
        ("round trip f32", 1e-4, lambda: round_trip(pcb32, x64.astype(np.float32))),
        (None, 1e-9, oracle),  # names itself: dense is skipped above DENSE_CAP
        ("triangular, unit diagonal, det=1", 0.0, triangular),
        ("barrier phases == H+W-1", 0.0, lambda: abs(st.phases - (2 * size - 1))),
        ("per-element madds <= k^2*C", 0.0, lambda: max(0, st.max_element_madds - k * k * channels)),
        ("worker-count determinism", 0.0, worker_determinism),
        ("train step bit-identical at workers 1/2/4/8", 0.0, train_determinism),
        ("unit round trip f64", 1e-9, unit_round_trip),
        ("flow gradient check", 1e-3, lambda: _model_gradient_error(model, seed + 3)),
    )
    results = []
    for name, limit, check in checks:
        note = ""
        if name is None:
            name, err, note = check()
        else:
            err = check()
        results.append(CheckResult(name, float(err), limit, note))
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
