"""Training: dequantization, NLL/BPD objective, masked-gradient Adam loop,
dataset ingestion, checkpointing."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadFormat, BadMagic, DimsMismatch, NonFiniteLoss, ShapeMismatch
from .flow import FlowModel, ModelConfig
from .images import pixels_u8, read_image
from .invconv import MaskedKernel, apply_anchor_mask, mask_anchor_gradient, require_workers
from .tensor import CODE_DTYPES, DTYPE_CODES, pack_record, read_tensor, unpack_record

LOG2_E = 1.0 / math.log(2.0)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    decay: float = 0.99997
    decay_per_step: bool = False
    grad_clip: float | None = None  # clip every gradient entry to [-c, c]
    batch_size: int = 64
    epochs: int = 1
    seed: int = 0
    workers: int = 1  # threads that run a step's batch chunks

    def __post_init__(self):
        if self.lr <= 0:
            raise BadFormat(f"lr must be > 0, got {self.lr}")
        if not 0 < self.decay <= 1:
            raise BadFormat(f"decay must be in (0, 1], got {self.decay}")
        if self.grad_clip is not None and not (
            math.isfinite(self.grad_clip) and self.grad_clip > 0
        ):
            raise BadFormat(f"grad clip must be finite and > 0, got {self.grad_clip}")
        if self.batch_size < 1 or self.epochs < 1:
            raise BadFormat(
                f"batch size and epochs must be >= 1, got {self.batch_size} and {self.epochs}"
            )
        require_workers(self.workers)


# ---------------------------------------------------------------------------
# objective


def dequantize(x_u8: np.ndarray, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """(x + u)/256 with u ~ U[0,1); output in [0, 1)."""
    x = np.asarray(x_u8)
    noise = rng.random(x.shape)
    return ((x.astype(np.float64) + noise) / 256.0).astype(dtype)


def nll(logp_total: float, logdet_total: float, n: int, dims, bins: int = 256) -> float:
    """Mean per-sample negative log likelihood in nats.

    Includes the change-of-scale term D*log(bins) for data dequantized to
    [0, 1) from ``bins`` integer levels; pass bins=1 to drop it.
    """
    c, h, w = dims
    value = -(logp_total + logdet_total) / n + c * h * w * math.log(bins)
    if not math.isfinite(value):
        raise NonFiniteLoss(f"NLL is {value}")
    return value


def bpd(nll_value: float, dims) -> float:
    """Bits per dimension: nll * log2(e) / (H*W*C)."""
    c, h, w = dims
    return nll_value * LOG2_E / (c * h * w)


# ---------------------------------------------------------------------------
# optimizer


def adam_update(value, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One standard Adam step with bias correction; mutates value, m, v."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    value -= lr * mhat / (np.sqrt(vhat) + eps)


class Adam:
    def __init__(self, named_params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.value, dtype=np.float64) for name, p in self.params}
        self.v = {name: np.zeros_like(p.value, dtype=np.float64) for name, p in self.params}

    def step(self):
        self.t += 1
        for name, p in self.params:
            val = p.value.astype(np.float64)
            adam_update(
                val,
                p.grad.astype(np.float64),
                self.m[name],
                self.v[name],
                self.t,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
            )
            p.value = val.astype(p.value.dtype)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Images as a (M, C, H, W) uint8 array."""

    images: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.images)
        if img.ndim != 4 or img.dtype != np.uint8:
            raise BadFormat(f"dataset must be (M,C,H,W) uint8, got {img.dtype} {img.shape}")
        self.images = img

    @property
    def dims(self):
        return self.images.shape[1:]

    def __len__(self):
        return self.images.shape[0]


def dataset_load(path) -> Dataset:
    """Load a directory of PGM/PPM files or an .ften archive of integral
    pixel values in [0, 255]."""
    path = Path(path)
    if path.is_dir():
        files = sorted(
            p for p in path.iterdir() if p.suffix.lower() in (".pgm", ".ppm")
        )
        if not files:
            raise BadFormat(f"{path}: no .pgm/.ppm files found")
        imgs = [read_image(p) for p in files]
        dims = imgs[0].shape
        for p, img in zip(files, imgs):
            if img.shape != dims:
                raise DimsMismatch(f"{p}: shape {img.shape} != {dims}")
        return Dataset(np.stack(imgs))
    if path.suffix == ".ften":
        return Dataset(pixels_u8(read_tensor(path), path))
    raise BadFormat(f"{path}: expected a directory or an .ften archive")


def synthetic_blobs(count=512, channels=4, size=8, seed=0) -> Dataset:
    """Mixture of smoothed Gaussian blobs; the canonical desk-scale
    training fixture (no external downloads)."""
    if count < 1 or channels < 1 or size < 2:
        raise ShapeMismatch(
            f"synthetic data needs count, channels >= 1 and size >= 2, "
            f"got {count}, {channels}, {size}"
        )
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    images = np.zeros((count, channels, size, size))
    for i in range(count):
        base = np.zeros((size, size))
        for _ in range(rng.integers(1, 4)):
            cy, cx = rng.uniform(1, size - 1, 2)
            sigma = rng.uniform(0.8, 1.8)
            amp = rng.uniform(0.5, 1.0)
            base += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        gains = rng.uniform(0.6, 1.0, channels)
        images[i] = gains[:, None, None] * base[None]
    images /= max(images.max(), 1e-9)
    return Dataset(np.round(images * 255.0).astype(np.uint8))


def iter_batches(dataset: Dataset, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        if idx.size:
            yield dataset.images[idx]


# ---------------------------------------------------------------------------
# training loop


def train_step(model: FlowModel, batch_u8: np.ndarray, cfg: TrainConfig, opt: Adam, rng):
    """forward and backward in batch chunks on ``cfg.workers`` threads
    (``FlowModel.forward_backward``) -> NLL -> anchor-mask grads -> clip ->
    Adam -> re-apply anchor mask to the weights.  Returns a metrics dict,
    the same for any worker count."""
    dims = model.config.channels, model.config.height, model.config.width
    x = dequantize(batch_u8, rng, model.dtype)
    logdet, logp = model.forward_backward(x, cfg.workers)
    loss = nll(logp, logdet, x.shape[0], dims)
    for p, orientation in model.unit_params():
        p.grad = mask_anchor_gradient(p.grad, orientation)
    if cfg.grad_clip is not None:
        for _, p in opt.params:
            np.clip(p.grad, -cfg.grad_clip, cfg.grad_clip, out=p.grad)
    grad_norm = math.sqrt(
        sum(float((p.grad.astype(np.float64) ** 2).sum()) for _, p in opt.params)
    )
    opt.step()
    for p, orientation in model.unit_params():
        p.value = apply_anchor_mask(MaskedKernel(p.value, orientation)).weights
    return {"nll": loss, "bpd": bpd(loss, dims), "grad_norm": grad_norm}


def train(model: FlowModel, dataset: Dataset, cfg: TrainConfig, metrics_out=None):
    """Run the full loop; optionally stream CSV rows to ``metrics_out``.

    Deterministic for a fixed seed and dataset, and the same for any
    ``cfg.workers``: each step's batch chunks run on the calling thread and
    up to ``cfg.workers`` - 1 pool threads.
    """
    if dataset.dims != (model.config.channels, model.config.height, model.config.width):
        raise DimsMismatch(
            f"dataset dims {dataset.dims} != model {model.config.channels}x"
            f"{model.config.height}x{model.config.width}"
        )
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.named_params(), cfg.lr)
    if metrics_out is not None:
        metrics_out.write("epoch,step,nll,bpd,grad_norm,lr\n")
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        for batch in iter_batches(dataset, cfg.batch_size, rng):
            opt.lr = cfg.lr * cfg.decay ** (step if cfg.decay_per_step else epoch)
            metrics = train_step(model, batch, cfg, opt, rng)
            metrics.update(epoch=epoch, step=step, lr=opt.lr)
            history.append(metrics)
            if metrics_out is not None:
                metrics_out.write(
                    "%d,%d,%.10f,%.10f,%.10f,%.10g\n"
                    % (
                        epoch,
                        step,
                        metrics["nll"],
                        metrics["bpd"],
                        metrics["grad_norm"],
                        opt.lr,
                    )
                )
            step += 1
    return history


# ---------------------------------------------------------------------------
# checkpoints

CKPT_MAGIC = b"FINCCKPT"
CKPT_VERSION = 1
# the header after the version: the config block in this order, the dtype
# code (three zero bytes of padding) and the record count
_CONFIG_FIELDS = ("levels", "steps", "channels", "height", "width", "kernel_size", "hidden")
_HEADER = struct.Struct("<7IB3xI")


def checkpoint_save(model: FlowModel, path) -> None:
    """Header, then each parameter as its name and its tensor record."""
    config = [getattr(model.config, f) for f in _CONFIG_FIELDS]
    params = list(model.named_params())
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + struct.pack("<I", CKPT_VERSION))
        fh.write(_HEADER.pack(*config, DTYPE_CODES[np.dtype(model.dtype)], len(params)))
        for name, p in params:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)) + raw + pack_record(p.value))


def checkpoint_load(path) -> FlowModel:
    """Rebuild the model and restore every parameter bit-exactly.

    The file must hold each of the model's parameters exactly once and
    nothing after the last record.  Any malformed file raises
    ``BadFormat`` (a record that ``unpack_record`` cannot parse, its
    ``TruncatedFile`` or ``UnsupportedDtype`` subclass), or
    ``DimsMismatch`` for a record of the wrong shape or dtype, or
    ``ShapeMismatch`` for a header that names an invalid ``ModelConfig``.
    A header whose largest parameter would not fit in the file is refused
    before the model is allocated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CKPT_MAGIC:
        raise BadMagic(f"{path}: not a checkpoint file")
    try:
        (version,) = struct.unpack_from("<I", data, 8)
        if version != CKPT_VERSION:
            raise BadFormat(f"{path}: unsupported checkpoint version {version}")
        *config, code, count = _HEADER.unpack_from(data, 12)
        pos = 12 + _HEADER.size
        if code not in CODE_DTYPES:
            raise BadFormat(f"{path}: unknown dtype code {code}")
        dtype = CODE_DTYPES[code]
        name = next(n for n, t in ModelConfig.DTYPES.items() if t == dtype)
        cfg = ModelConfig(**dict(zip(_CONFIG_FIELDS, config)), dtype=name)
        cfg.validate()
        # Before allocating, the payload must hold one record (>= 25 bytes)
        # per flow step and the largest parameter: a coupling 1x1 conv
        # (hidden^2), or at the last level (c = channels * 2^(L+1) channels)
        # the Inv1x1 (c^2) or a unit kernel ((c/4)^2 k^2).
        c_last = cfg.channels * 2 ** (cfg.levels + 1)
        largest = max(cfg.hidden**2, c_last**2, (c_last // 4) ** 2 * cfg.kernel_size**2)
        need = max(largest * dtype.itemsize, 25 * cfg.levels * cfg.steps)
        if need > len(data) - pos:
            raise BadFormat(
                f"{path}: header implies at least {need} payload bytes, "
                f"the file holds {len(data) - pos}"
            )
        model = FlowModel(cfg, identity_init=True, data_init=False)
        by_name = dict(model.named_params())
        if count != len(by_name):
            raise BadFormat(
                f"{path}: {count} parameter records, the model has {len(by_name)}"
            )
        loaded = set()
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            if name not in by_name:
                raise BadFormat(f"{path}: unknown parameter {name}")
            if name in loaded:
                raise BadFormat(f"{path}: parameter {name} appears twice")
            loaded.add(name)
            arr, pos = unpack_record(data, pos, f"{path}: parameter {name}")
            target = by_name[name]
            shape = target.value.shape
            # pack_record pads the shape with leading 1s
            if arr.shape != (1,) * (4 - len(shape)) + shape or arr.dtype != model.dtype:
                raise DimsMismatch(
                    f"{path}: parameter {name} has dims {arr.shape} and dtype {arr.dtype}, "
                    f"the model needs {shape} and {np.dtype(model.dtype)}"
                )
            target.value = arr.reshape(shape)
            target.grad = np.zeros_like(target.value)
    except (struct.error, UnicodeDecodeError) as exc:
        raise BadFormat(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if pos != len(data):
        raise BadFormat(f"{path}: {len(data) - pos} trailing bytes after the last record")
    return model
