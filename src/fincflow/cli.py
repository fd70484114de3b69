"""Command-line interface: fincflow {train|sample|reconstruct|check|bench}.

Options can come from a ``--config FILE`` of ``key = value`` lines
('#' starts a comment; keys use the flag spelling with underscores).
Command-line flags override file values; unknown keys are rejected.
FINCFLOW_WORKERS sets the default worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .errors import BadFormat, DimsMismatch, FincError, TooLargeForDense
from .flow import FlowModel, ModelConfig
from .images import read_image, write_image
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
    env = os.environ.get("FINCFLOW_WORKERS")
    if env is not None:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
        print(f"warning: ignoring bad FINCFLOW_WORKERS={env!r}", file=sys.stderr)
    return 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key = value file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    common.add_argument(
        "--workers",
        type=int,
        default=_default_workers(),
        help="must be >= 1; kept for CLI stability: the inverse solves each of "
        "its H+W-1 anti-diagonals with one batched gather and contraction, and "
        "results are identical for any value (default: FINCFLOW_WORKERS or 1)",
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
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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
    return (action.type or str)(raw)


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


def _load_dataset(args):
    if args.data == "synthetic":
        return synthetic_blobs(args.count, args.channels, args.size, args.seed)
    return dataset_load(args.data)


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    c, h, w = ds.dims
    cfg = ModelConfig(
        c, h, w, args.levels, args.steps, args.kernel_size, args.hidden, args.dtype
    )
    cfg.validate()  # reject bad L for the image size before any training
    model = FlowModel(cfg, np.random.default_rng(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tcfg = TrainConfig(
        lr=args.lr,
        decay=args.decay,
        decay_per_step=args.decay_per_step,
        grad_clip=args.grad_clip,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
    )
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
    return np.clip(np.floor(x * 256.0), 0, 255).astype(np.uint8)


def cmd_sample(args) -> int:
    if args.temperature < 0:
        raise BadFormat(f"temperature must be >= 0, got {args.temperature}")
    model = checkpoint_load(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    x = model.sample(args.count, args.temperature, rng, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    imgs = _requantize(x)
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
        if np.any(arr < 0) or np.any(arr > 255) or np.any(arr != np.round(arr)):
            raise BadFormat(f"{path}: pixel values must be integers in [0, 255]")
        return arr[0].astype(np.uint8)
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
    results = bench_mod.run_checks(
        size=args.size,
        channels=args.channels,
        k=args.kernel_size,
        workers=args.workers,
        seed=args.seed,
        inject_fault=args.inject,
    )
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _parse_sizes(raw: str) -> list[int]:
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
        sizes.append(n)
    if not sizes:
        raise BadFormat("no bench sizes given")
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    reports = []
    lines = [bench_mod.CSV_HEADER]
    for n in sizes:
        for strategy in strategies:
            try:
                if args.target == "unit":
                    if strategy == "dense":
                        print("note: dense strategy not defined for units; skipped", file=sys.stderr)
                        continue
                    rep = bench_mod.bench_unit(
                        n, args.channels, args.kernel_size, args.batch,
                        args.workers, strategy, seed=args.seed,
                    )
                else:
                    rep = bench_mod.bench_pcb(
                        n, args.channels, args.kernel_size, args.batch,
                        args.workers, strategy, seed=args.seed,
                    )
            except TooLargeForDense as exc:
                print(f"note: {exc}; row skipped", file=sys.stderr)
                continue
            reports.append(rep)
            lines.append(rep.csv_row())
    text = "\n".join(lines) + "\n"
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        Path(args.csv).write_text(text)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    if args.gnuplot:
        bench_mod.write_gnuplot(reports, args.gnuplot)
        print(f"wrote {args.gnuplot}", file=sys.stderr)
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
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            args = apply_config_file(args, subparsers[args.command], argv)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        except FincError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        return COMMANDS[args.command](args)
    except FincError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
