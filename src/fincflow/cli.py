"""Command-line interface: fincflow {train|sample|reconstruct|check|bench}.

Options can come from a ``--config FILE`` of ``key = value`` lines
('#' starts a comment; keys use the flag spelling with underscores).
Command-line flags override file values; unknown keys are rejected.
FINCFLOW_WORKERS sets the default of --workers, the thread count of
train, sample and reconstruct; a value that is not an integer >= 1 is an
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .errors import BadFormat, DimsMismatch, FincError, TooLargeForDense, is_size_refusal
from .flow import FlowModel, ModelConfig
from .images import pixels_u8, read_image, write_image
from .tensor import read_tensor, write_tensor
from .train import (
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    dataset_load,
    synthetic_blobs,
    train,
)


def _default_workers() -> int:
    env = os.environ.get("FINCFLOW_WORKERS", "1")
    if not env.isdecimal() or int(env) < 1:
        raise BadFormat(f"FINCFLOW_WORKERS must be an integer >= 1, got {env!r}")
    return int(env)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key = value file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--dtype", choices=tuple(ModelConfig.DTYPES), default="f32",
        help="read by train and bench; check runs its fixed f32 and f64 rows; "
        "sample and reconstruct use the checkpoint's dtype",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=_default_workers(),
        help="threads that run a batch in chunks: a train step's forward and "
        "backward in chunks of at most 16 images, a sample or reconstruct batch "
        "through the inverse flow in chunks of at most 32; check and bench only "
        "validate it; must be >= 1, and results are identical for any value "
        "(default: FINCFLOW_WORKERS or 1)",
    )
    common.add_argument("--out", type=str, default="out")

    parser = argparse.ArgumentParser(prog="fincflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("train", parents=[common], help="train a flow model")
    p.add_argument("--data", type=str, default="synthetic", help="dataset dir, .ften archive, or 'synthetic'")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--decay", type=float, default=0.99997)
    p.add_argument("--decay-per-step", action="store_true")
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--channels", type=int, default=4, help="synthetic data channels")
    p.add_argument("--size", type=int, default=8, help="synthetic image size")
    p.add_argument("--count", type=int, default=512, help="synthetic image count")
    subparsers["train"] = p

    p = sub.add_parser("sample", parents=[common], help="sample images from a checkpoint")
    p.add_argument("checkpoint", type=str)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--temperature", type=float, default=1.0)
    subparsers["sample"] = p

    p = sub.add_parser("reconstruct", parents=[common], help="forward then inverse one image")
    p.add_argument("checkpoint", type=str)
    p.add_argument("image_in", type=str)
    p.add_argument("image_out", type=str)
    subparsers["reconstruct"] = p

    p = sub.add_parser("check", parents=[common], help="run the correctness check suite")
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--inject", choices=("anchor",), default=None, help="fault injection for self-test")
    subparsers["check"] = p

    p = sub.add_parser("bench", parents=[common], help="timing benchmark with CSV report")
    p.add_argument("--sizes", type=str, default="16,32", help="comma-separated H=W values")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--strategies", type=str, default="reference,wavefront,dense")
    p.add_argument("--target", choices=("pcb", "unit"), default="pcb")
    p.add_argument("--gnuplot", type=str, default=None, help="also write a gnuplot data file")
    p.add_argument("--csv", type=str, default=None, help="write CSV here instead of stdout")
    subparsers["bench"] = p

    return parser, subparsers


def parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise BadFormat(f"{path}: config file is not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadFormat(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise BadFormat(f"{path}:{lineno}: empty key")
        values[key.replace("-", "_")] = value
    return values


def _coerce(action: argparse.Action, raw: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise BadFormat(f"boolean key {action.dest} has non-boolean value {raw!r}")
    if action.choices is not None and raw not in action.choices:
        raise BadFormat(f"key {action.dest} must be one of {sorted(action.choices)}")
    try:
        return (action.type or str)(raw)
    except ValueError:
        raise BadFormat(f"key {action.dest} has unparsable value {raw!r}") from None


def apply_config_file(args: argparse.Namespace, subparser, argv) -> argparse.Namespace:
    """Validate config keys, install them as defaults, re-parse the
    command line so explicit flags win."""
    values = parse_config_file(args.config)
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    defaults = {}
    for key, raw in values.items():
        if key not in actions or not actions[key].option_strings:
            raise BadFormat(f"unknown config key {key!r} for this command")
        defaults[key] = _coerce(actions[key], raw)
    subparser.set_defaults(**defaults)
    return subparser.parse_args(argv[1:], namespace=argparse.Namespace(command=args.command))


# ---------------------------------------------------------------------------
# commands


def _require_positive(args, *names):
    """Reject a size flag below 1 before any work is done."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise BadFormat(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _load_dataset(args):
    if args.data == "synthetic":
        return synthetic_blobs(args.count, args.channels, args.size, args.seed)
    return dataset_load(args.data)


def cmd_train(args) -> int:
    tcfg = TrainConfig(
        lr=args.lr,
        decay=args.decay,
        decay_per_step=args.decay_per_step,
        grad_clip=args.grad_clip,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        workers=args.workers,
    )
    ds = _load_dataset(args)
    c, h, w = ds.dims
    cfg = ModelConfig(
        c, h, w, args.levels, args.steps, args.kernel_size, args.hidden, args.dtype
    )
    model = FlowModel(cfg, np.random.default_rng(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w") as fh:
        history = train(model, ds, tcfg, metrics_out=fh)
    checkpoint_save(model, out / "model.ckpt")
    last = history[-1]
    print(
        f"trained {len(history)} steps on {len(ds)} images "
        f"({c}x{h}x{w}); final nll={last['nll']:.4f} bpd={last['bpd']:.4f}"
    )
    print(f"wrote {out / 'metrics.csv'} and {out / 'model.ckpt'}")
    return 0


def _requantize(x: np.ndarray) -> np.ndarray:
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:  # callers requantize before they write any file
        raise FincError(f"model output has {bad} non-finite values of {x.size}")
    return np.clip(np.floor(x * 256.0), 0, 255).astype(np.uint8)


def cmd_sample(args) -> int:
    _require_positive(args, "count")
    model = checkpoint_load(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    x = model.sample(args.count, args.temperature, rng, workers=args.workers)
    imgs = _requantize(x)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    c = imgs.shape[1]
    for i in range(imgs.shape[0]):
        if c in (1, 3):
            ext = "pgm" if c == 1 else "ppm"
            path = out / f"sample_{i:03d}.{ext}"
            write_image(path, imgs[i])
        else:
            path = out / f"sample_{i:03d}.ften"
            write_tensor(path, imgs[i][None].astype(np.float32))
        print(f"wrote {path}")
    return 0


def _read_any_image(path: str) -> np.ndarray:
    p = Path(path)
    if p.suffix == ".ften":
        arr = read_tensor(p)
        if arr.shape[0] != 1:
            raise BadFormat(f"{path}: expected a single image, got N={arr.shape[0]}")
        return pixels_u8(arr[0], path)
    return read_image(p)


def cmd_reconstruct(args) -> int:
    model = checkpoint_load(args.checkpoint)
    img = _read_any_image(args.image_in)
    cfg = model.config
    if img.shape != (cfg.channels, cfg.height, cfg.width):
        raise DimsMismatch(
            f"image {img.shape} does not match model "
            f"({cfg.channels}, {cfg.height}, {cfg.width})"
        )
    # deterministic bin-center dequantization so identity models
    # reconstruct pixel-exactly after re-quantization
    x = ((img.astype(np.float64) + 0.5) / 256.0).astype(model.dtype)[None]
    latents, _, _ = model.forward(x)
    xr = model.inverse(latents, workers=args.workers)
    err = float(np.max(np.abs(xr - x)))
    out_u8 = _requantize(xr)[0]
    p = Path(args.image_out)
    if p.suffix == ".ften":
        write_tensor(p, out_u8[None].astype(np.float32))
    else:
        write_image(p, out_u8)
    exact = bool(np.array_equal(out_u8, img))
    print(f"max abs reconstruction error: {err:.3e}")
    print(f"pixel-exact after re-quantization: {exact}")
    print(f"wrote {p}")
    return 0


def cmd_check(args) -> int:
    _require_positive(args, "size", "channels", "kernel_size")
    results = bench_mod.run_checks(
        size=args.size,
        channels=args.channels,
        k=args.kernel_size,
        seed=args.seed,
        inject_fault=args.inject,
    )
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def parse_sizes(raw: str) -> list[int]:
    sizes = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            n = int(tok)
        except ValueError:
            raise BadFormat(f"bench sizes must be integers, got {tok!r}") from None
        if n < 8 or n > 256 or n & (n - 1):
            raise BadFormat(f"bench sizes must be powers of two in [8, 256], got {n}")
        if n in sizes:
            raise BadFormat(f"bench size {n} is given twice")
        sizes.append(n)
    if not sizes:
        raise BadFormat("no bench sizes given")
    return sizes


def cmd_bench(args) -> int:
    _require_positive(args, "batch", "channels", "kernel_size")
    sizes = parse_sizes(args.sizes)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise BadFormat("no bench strategies given")
    unit = args.target == "unit"
    dtype = ModelConfig.DTYPES[args.dtype]
    cases = []
    for n in sizes:
        for strategy in strategies:
            if unit and strategy == "dense":
                print("note: dense strategy not defined for units; skipped", file=sys.stderr)
                continue
            try:
                case = bench_mod.prepare_case(
                    n, args.channels, args.kernel_size, args.batch, strategy,
                    args.seed, dtype, unit,
                )
            except TooLargeForDense as exc:
                print(f"note: {exc}; row skipped", file=sys.stderr)
                continue
            cases.append(case)
    reports = bench_mod.time_rounds(cases)
    if not reports:
        raise FincError("every bench row was skipped; nothing was measured")
    text = bench_mod.csv_text(reports)
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        Path(args.csv).write_text(text)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    if args.gnuplot:
        bench_mod.write_gnuplot(reports, args.gnuplot)
        print(f"wrote {args.gnuplot}", file=sys.stderr)
    kept = bench_mod.RUNS_TOTAL - bench_mod.RUNS_DISCARDED
    for strategy, pairs in bench_mod.growth_ratios(reports).items():
        for (a, b), ratio in pairs.items():
            print(f"growth {strategy} {a}->{b}: {ratio:.2f}x (median of {kept} per-round ratios)",
                  file=sys.stderr)
    return 0


COMMANDS = {
    "train": cmd_train,
    "sample": cmd_sample,
    "reconstruct": cmd_reconstruct,
    "check": cmd_check,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, subparsers = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = apply_config_file(args, subparsers[args.command], argv)
        _require_positive(args, "workers")
        return COMMANDS[args.command](args)
    except (FincError, OSError, MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not is_size_refusal(exc):
            raise
        # numpy's MemoryError names the array it could not allocate; its
        # ValueError only says that the size is too large
        prefix = "cannot allocate an array: " if isinstance(exc, ValueError) else ""
        print(f"error: {prefix}{exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
