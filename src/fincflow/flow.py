"""Invertible flow layers and the multi-scale model.

Every layer implements:

* ``named_params(prefix)``, yielding its (name, Param) pairs,
* ``forward(x) -> (y, logdet_total, cache)`` where logdet_total is the
  log |det J| summed over the batch,
* ``inverse(y) -> x``,
* ``backward(grad_y, grad_logdet, cache, grads=PARAM_GRADS) -> grad_x``
  which adds its parameter gradients into ``grads``, a map from each
  Param to its gradient array; the default map is every Param's own
  ``grad``.  ``grad_logdet`` is dLoss/d(logdet_total), a scalar (-1/N
  for the mean negative log likelihood).

Two layers are exceptions.  ``Squeeze`` has no parameters and no cache:
its static ``forward(x) -> y`` and ``backward(grad_y) -> grad_x`` take
the array alone.  ``Split`` drops a latent: ``forward(x) -> (x1, z,
logp_total, cache)``, ``inverse(x1, z) -> x``, and ``backward`` takes
dLoss/d(logp_total) where the others take grad_logdet.  ``Conv2d``, a
part of the coupling and prior nets, returns its parameter gradients
from ``backward(grad_y, x)`` and its caller adds them to the map.

Gradients are analytic; no autodiff framework is involved.  The finite
difference suite in the tests is the correctness oracle.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    MissingCache,
    ModelTooLarge,
    OddChannels,
    OddSpatialDims,
    ShapeMismatch,
    SingularWeight,
    ZeroScale,
    is_size_refusal,
)
from .invconv import (
    FincFlowUnit,
    MaskedKernel,
    UNIT_ORIENTATIONS,
    identity_unit,
    random_unit,
    require_workers,
    unit_backward,
    unit_forward,
    unit_invert,
)
from .tensor import correlate, correlate_wgrad, require_nchw

LOG_2PI = math.log(2.0 * math.pi)


class Param:
    """A learnable array with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


class _ParamGrads:
    """The gradient map that reads and writes each Param's own ``grad``."""

    def __getitem__(self, p):
        return p.grad

    def __setitem__(self, p, grad):
        p.grad = grad


PARAM_GRADS = _ParamGrads()


def _need(cache):
    if cache is None:
        raise MissingCache("backward called without a forward cache")
    return cache


def gaussian_logp(z, mean, log_sd):
    """Elementwise log N(z; mean, exp(log_sd)^2)."""
    inv_var = np.exp(-2.0 * log_sd)
    return -0.5 * LOG_2PI - log_sd - 0.5 * (z - mean) ** 2 * inv_var


def gaussian_logp_grads(z, mean, log_sd):
    """(dlogp/dz, dlogp/dmean, dlogp/dlog_sd), elementwise."""
    inv_var = np.exp(-2.0 * log_sd)
    diff = (z - mean) * inv_var
    return -diff * 1.0, diff, -1.0 + (z - mean) ** 2 * inv_var


# ---------------------------------------------------------------------------
# plumbing convolutions for the coupling and prior nets


# Padded planes a thread keeps for reuse; the least recently used goes
# first.  The benchmark's train step touches 6 distinct planes, sample 4.
_PLANE_SLOTS = 8


class _PlaneWorkspace(threading.local):
    """Per-thread zero-bordered planes keyed by (shape, dtype, pad)."""

    def __init__(self):
        self.planes = OrderedDict()

    def padded(self, x, p):
        """``x`` zero-padded by ``p`` on every side, in a reused buffer.

        The border is zeroed once, when the buffer is made, and each call
        overwrites only the interior, so the result matches a fresh
        ``np.zeros`` plane.  It stays valid until this thread's next call
        with the same key."""
        n, c, h, w = x.shape
        key = ((n, c, h + 2 * p, w + 2 * p), x.dtype, p)
        xp = self.planes.pop(key, None)
        if xp is None:
            xp = np.zeros(key[0], dtype=x.dtype)
            if len(self.planes) >= _PLANE_SLOTS:
                self.planes.popitem(last=False)
        self.planes[key] = xp
        xp[:, :, p : p + h, p : p + w] = x
        return xp


_WORKSPACE = _PlaneWorkspace()


class Conv2d:
    """Same-padded stride-1 cross-correlation with bias (k odd).

    Forward, weight gradient and input gradient are each one
    ``correlate``/``correlate_wgrad`` call.  ``correlate`` picks im2col or
    kn2row from the channel counts, so a widening forward (c_in < c_out)
    and the input gradient of a narrowing one are a single matmul per
    image.

    The padded operand of each call is written into a per-thread
    workspace plane whose zero border is kept between calls, instead of a
    fresh ``np.zeros`` array.  A plane is only read inside the call that
    fills it: outputs and gradients are always new arrays.

    ``backward(gy, x)`` returns (grad_x, grad_w, grad_b) and leaves the
    accumulation to the caller, whose gradient map it does not know."""

    def __init__(self, c_in, c_out, k, rng=None, dtype=np.float64, zero_init=False):
        if zero_init:
            w = np.zeros((c_out, c_in, k, k), dtype=dtype)
        else:
            w = (rng.normal(scale=0.05, size=(c_out, c_in, k, k))).astype(dtype)
        self.w = Param(w)
        self.b = Param(np.zeros(c_out, dtype=dtype))
        self.k = k

    def named_params(self, prefix):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b

    def _padded(self, x):
        p = self.k // 2
        if p == 0:
            return x
        return _WORKSPACE.padded(x, p)

    def forward(self, x):
        y = correlate(self._padded(x), self.w.value)
        y += self.b.value[None, :, None, None]
        return y

    def backward(self, gy, x):
        gw = correlate_wgrad(gy, self._padded(x), self.k)
        gb = gy.sum(axis=(0, 2, 3))
        # input gradient: same-padded correlation with the channel-transposed,
        # spatially flipped kernel
        kt = self.w.value.swapaxes(0, 1)[:, :, ::-1, ::-1]
        return correlate(self._padded(gy), kt), gw, gb


def _conv_backward(conv, gy, x, grads):
    """``conv.backward`` with its parameter gradients added to ``grads``."""
    gx, gw, gb = conv.backward(gy, x)
    grads[conv.w] += gw
    grads[conv.b] += gb
    return gx


class CouplingNet:
    """3x3 conv, rectifier, 1x1 conv, rectifier, zero-initialized 3x3 conv.

    The rectifiers work in place on the conv outputs, which are fresh
    arrays, so the forward cache holds only (x, a1, a2); ``a > 0`` is the
    rectifier's mask, the same as ``h > 0`` for every h, NaN included.  The
    backward masks the conv input gradients in place, as they are fresh
    arrays too."""

    def __init__(self, c_in, c_out, hidden, rng, dtype):
        self.conv1 = Conv2d(c_in, hidden, 3, rng, dtype)
        self.conv2 = Conv2d(hidden, hidden, 1, rng, dtype)
        self.conv3 = Conv2d(hidden, c_out, 3, dtype=dtype, zero_init=True)

    def named_params(self, prefix):
        yield from self.conv1.named_params(f"{prefix}.conv1")
        yield from self.conv2.named_params(f"{prefix}.conv2")
        yield from self.conv3.named_params(f"{prefix}.conv3")

    def forward(self, x):
        a1 = self.conv1.forward(x)
        np.maximum(a1, 0.0, out=a1)
        a2 = self.conv2.forward(a1)
        np.maximum(a2, 0.0, out=a2)
        out = self.conv3.forward(a2)
        return out, (x, a1, a2)

    def backward(self, gout, cache, grads):
        x, a1, a2 = cache
        ga2 = _conv_backward(self.conv3, gout, a2, grads)
        np.multiply(ga2, a2 > 0, out=ga2)
        ga1 = _conv_backward(self.conv2, ga2, a1, grads)
        np.multiply(ga1, a1 > 0, out=ga1)
        return _conv_backward(self.conv1, ga1, x, grads)


# ---------------------------------------------------------------------------
# flow layers


class ActNorm:
    """Per-channel affine y = scale * x + bias with data-dependent init."""

    def __init__(self, c, dtype=np.float64, data_init=True):
        self.scale = Param(np.ones(c, dtype=dtype))
        self.bias = Param(np.zeros(c, dtype=dtype))
        self.pending_init = data_init

    def named_params(self, prefix):
        yield f"{prefix}.scale", self.scale
        yield f"{prefix}.bias", self.bias

    def _init_from(self, x):
        mean = x.mean(axis=(0, 2, 3))
        std = x.std(axis=(0, 2, 3)) + np.asarray(1e-6, dtype=x.dtype)
        self.scale.value = (1.0 / std).astype(x.dtype)
        self.bias.value = (-mean / std).astype(x.dtype)
        self.scale.grad = np.zeros_like(self.scale.value)
        self.bias.grad = np.zeros_like(self.bias.value)
        self.pending_init = False

    def _check_scale(self):
        if np.any(self.scale.value == 0.0):
            raise ZeroScale("actnorm scale has a zero entry")

    def forward(self, x):
        if self.pending_init:
            self._init_from(x)
        self._check_scale()
        n, _, h, w = x.shape
        s = self.scale.value[None, :, None, None]
        y = s * x + self.bias.value[None, :, None, None]
        logdet = n * h * w * float(np.log(np.abs(self.scale.value)).sum())
        return y, logdet, (x, x.shape)

    def inverse(self, y):
        if self.pending_init:
            raise ZeroScale("actnorm not initialized; run a forward pass first")
        self._check_scale()
        s = self.scale.value[None, :, None, None]
        return (y - self.bias.value[None, :, None, None]) / s

    def backward(self, gy, gld, cache, grads=PARAM_GRADS):
        x, (n, _, h, w) = _need(cache)
        gx = gy * self.scale.value[None, :, None, None]
        grads[self.scale] += (gy * x).sum(axis=(0, 2, 3)) + gld * n * h * w / self.scale.value
        grads[self.bias] += gy.sum(axis=(0, 2, 3))
        return gx


class Inv1x1:
    """Per-pixel channel mix by a dense C x C matrix.

    Every contraction is one matmul over the (N, C, H*W) view of the
    activation.  ``inverse`` inverts the weight in f64 on each call and
    applies W^-1 in the activation's dtype."""

    DET_FLOOR = 1e-12

    def __init__(self, c, rng=None, dtype=np.float64, identity_init=False):
        if identity_init or rng is None:
            w = np.eye(c, dtype=dtype)
        else:
            q, _ = np.linalg.qr(rng.normal(size=(c, c)))
            w = q.astype(dtype)
        self.w = Param(w)

    def named_params(self, prefix):
        yield f"{prefix}.w", self.w

    def _logabsdet(self):
        sign, logabs = np.linalg.slogdet(self.w.value.astype(np.float64))
        if sign == 0.0 or logabs < math.log(self.DET_FLOOR):
            raise SingularWeight("1x1 weight matrix is numerically singular")
        return float(logabs)

    def forward(self, x):
        n, c, h, w = x.shape
        logdet = n * h * w * self._logabsdet()
        y = (self.w.value @ x.reshape(n, c, h * w)).reshape(n, c, h, w)
        return y, logdet, (x, x.shape)

    def inverse(self, y):
        self._logabsdet()
        n, c, h, w = y.shape
        winv = np.linalg.inv(self.w.value.astype(np.float64)).astype(y.dtype)
        return (winv @ y.reshape(n, c, h * w)).reshape(n, c, h, w)

    def backward(self, gy, gld, cache, grads=PARAM_GRADS):
        x, (n, c, h, w) = _need(cache)
        gy = gy.reshape(n, c, h * w)
        gx = (self.w.value.T @ gy).reshape(n, c, h, w)
        grads[self.w] += (gy @ x.reshape(n, c, h * w).transpose(0, 2, 1)).sum(axis=0)
        winv_t = np.linalg.inv(self.w.value.astype(np.float64)).T
        grads[self.w] += gld * n * h * w * winv_t.astype(self.w.value.dtype)
        return gx


class Coupling:
    """First channel half passes through and parameterizes an affine map
    of the second half.  Scale is 2*sigmoid(raw), in (0, 2) and exactly 1
    under the zero-initialized final convolution."""

    def __init__(self, c, hidden, rng, dtype=np.float64):
        if c % 2:
            raise OddChannels(f"coupling needs even C, got {c}")
        self.c_half = c // 2
        self.net = CouplingNet(self.c_half, c, hidden, rng, dtype)

    def named_params(self, prefix):
        yield from self.net.named_params(f"{prefix}.net")

    def _scale_shift(self, x1):
        out, net_cache = self.net.forward(x1)
        t = out[:, : self.c_half]
        raw = out[:, self.c_half :]
        s = 2.0 / (1.0 + np.exp(-raw))
        return s, t, net_cache

    def forward(self, x):
        x1 = x[:, : self.c_half]
        x2 = x[:, self.c_half :]
        s, t, net_cache = self._scale_shift(x1)
        y2 = x2 * s + t
        logdet = float(np.log(s).sum())
        y = np.concatenate([x1, y2], axis=1)
        return y, logdet, (x2, s, net_cache)

    def inverse(self, y):
        y1 = y[:, : self.c_half]
        y2 = y[:, self.c_half :]
        s, t, _ = self._scale_shift(y1)
        return np.concatenate([y1, (y2 - t) / s], axis=1)

    def backward(self, gy, gld, cache, grads=PARAM_GRADS):
        x2, s, net_cache = _need(cache)
        gy1 = gy[:, : self.c_half]
        gy2 = gy[:, self.c_half :]
        gx2 = gy2 * s
        gs = gy2 * x2 + gld / s
        graw = gs * s * (1.0 - 0.5 * s)
        gout = np.concatenate([gy2, graw], axis=1)
        gx1 = self.net.backward(gout, net_cache, grads)
        return np.concatenate([gy1 + gx1, gx2], axis=1)


class Squeeze:
    """2x2 spatial-to-channel rearrangement; exact, volume preserving."""

    @staticmethod
    def forward(x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise OddSpatialDims(f"squeeze needs even H, W, got {h}x{w}")
        z = x.reshape(n, c, h // 2, 2, w // 2, 2)
        z = z.transpose(0, 1, 3, 5, 2, 4)
        return np.ascontiguousarray(z.reshape(n, 4 * c, h // 2, w // 2))

    @staticmethod
    def inverse(y):
        n, c4, h, w = y.shape
        if c4 % 4:
            raise OddChannels(f"unsqueeze needs C divisible by 4, got {c4}")
        c = c4 // 4
        z = y.reshape(n, c, 2, 2, h, w)
        z = z.transpose(0, 1, 4, 2, 5, 3)
        return np.ascontiguousarray(z.reshape(n, c, 2 * h, 2 * w))

    @staticmethod
    def backward(gy):
        return Squeeze.inverse(gy)


class Split:
    """Drops the second channel half as a Gaussian latent whose prior
    parameters come from a zero-initialized conv over the retained half."""

    def __init__(self, c, rng, dtype=np.float64):
        if c % 2:
            raise OddChannels(f"split needs even C, got {c}")
        self.c_half = c // 2
        self.prior = Conv2d(self.c_half, c, 3, dtype=dtype, zero_init=True)

    def named_params(self, prefix):
        yield from self.prior.named_params(f"{prefix}.prior")

    def _prior_params(self, x1):
        out = self.prior.forward(x1)
        return out[:, : self.c_half], out[:, self.c_half :]

    def forward(self, x):
        x1 = x[:, : self.c_half]
        z = x[:, self.c_half :]
        mean, log_sd = self._prior_params(x1)
        logp = float(gaussian_logp(z, mean, log_sd).sum())
        return x1, z, logp, (x1, z, mean, log_sd)

    def inverse(self, x1, z):
        return np.concatenate([x1, z], axis=1)

    def sample_z(self, x1, temperature, noise):
        """The dropped half for the retained half ``x1``: its prior mean plus
        ``temperature`` times the prior's std times ``noise``, standard-normal
        noise already drawn in the latent's shape (None at temperature 0)."""
        mean, log_sd = self._prior_params(x1)
        if temperature == 0.0:
            return mean.astype(x1.dtype)
        if noise.shape != mean.shape:
            raise ShapeMismatch(f"noise shape {noise.shape}, expected {mean.shape}")
        eps = noise.astype(x1.dtype)
        return (mean + np.exp(log_sd) * temperature * eps).astype(x1.dtype)

    def backward(self, g_x1, g_logp, cache, grads=PARAM_GRADS):
        x1, z, mean, log_sd = _need(cache)
        dz, dmean, dlog_sd = gaussian_logp_grads(z, mean, log_sd)
        gz = g_logp * dz
        gout = np.concatenate([g_logp * dmean, g_logp * dlog_sd], axis=1)
        g_x1_prior = _conv_backward(self.prior, gout, x1, grads)
        return np.concatenate([g_x1 + g_x1_prior, gz], axis=1)


class UnitLayer:
    """Four masked kernels on channel quarters, learnable as Params."""

    def __init__(self, c, k, rng=None, dtype=np.float64, identity_init=False):
        self.c = c
        self.k = k
        if identity_init or rng is None:
            unit = identity_unit(c, k, dtype)
        else:
            unit = random_unit(c, k, rng, dtype)
        self.kernels = [Param(kern.weights) for kern in unit.blocks]

    def named_params(self, prefix):
        for i, p in enumerate(self.kernels):
            yield f"{prefix}.k{i}", p

    def unit(self) -> FincFlowUnit:
        """Built per call, not cached: Adam, the anchor mask and
        checkpoint_load reassign ``Param.value``."""
        return FincFlowUnit(
            [MaskedKernel(p.value, o) for p, o in zip(self.kernels, UNIT_ORIENTATIONS)]
        )

    def forward(self, x):
        y, logdet = unit_forward(x, self.unit())
        return y, logdet, (x,)

    def inverse(self, y):
        return unit_invert(y, self.unit())

    def backward(self, gy, gld, cache, grads=PARAM_GRADS):
        (x,) = _need(cache)
        gx, gws = unit_backward(gy, x, self.unit())
        for p, gw in zip(self.kernels, gws):
            grads[p] += gw
        return gx


# ---------------------------------------------------------------------------
# batch chunks


# Most images in one chunk of a sample or inverse batch.  The unit inverse
# puts the batch in its matmuls' columns, and their rounding follows the
# column count, so chunk bounds depend on the batch size alone: any worker
# count gives the same bits.
CHUNK_IMAGES = 32
# Most images in one chunk of a training batch.  A chunk's forward and
# backward finish before its lane starts the next chunk, so a lane holds
# one chunk's activations at a time; as above, the bounds depend on the
# batch size alone.
TRAIN_CHUNK_IMAGES = 16
# Most pool threads ever started, so that a large ``workers`` never starts
# one thread per chunk.
_MAX_POOL_THREADS = 32

_pool = None
_pool_lock = threading.Lock()


def _chunk_pool():
    """The process's chunk executor, made on first use.  It persists so
    that its threads keep their Conv2d workspace planes between calls; it
    starts a thread only when a task finds none idle."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: with the logging module it pulls in, it cost
            # train and reconstruct, which never chunk, 0.6-1.4 MB of peak
            # RSS and 5-13% of set-up time
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_MAX_POOL_THREADS, thread_name_prefix="fincflow-chunk")
        return _pool


def _run_chunks(n, workers, run, most=CHUNK_IMAGES):
    """``run(lo, hi)`` on the near-equal chunks of at most ``most`` images
    of a batch of ``n``; returns the results in chunk order.

    Chunk i goes to lane i mod L, L = min(workers, chunks).  The calling
    thread runs lane 0, so its first chunk reuses the caller's workspace
    planes; pool threads run the others, and at one lane the pool is not
    made.  Every lane finishes before an error from any of them is
    raised."""
    parts = np.array_split(np.arange(n), -(-n // most))
    bounds = [(int(p[0]), int(p[-1]) + 1) for p in parts]
    lanes = min(workers, len(bounds), _MAX_POOL_THREADS + 1)

    def lane(i):
        return [run(lo, hi) for lo, hi in bounds[i::lanes]]

    futures = [_chunk_pool().submit(lane, i) for i in range(1, lanes)]
    try:
        done = [lane(0)]
    finally:
        for f in futures:
            f.exception()  # waits for the lane without raising its error
    done += [f.result() for f in futures]
    return [done[i % lanes][i // lanes] for i in range(len(bounds))]


@dataclass
class ModelConfig:
    channels: int
    height: int
    width: int
    levels: int
    steps: int
    kernel_size: int = 3
    hidden: int = 64
    dtype: str = "f32"
    DTYPES = {"f32": np.float32, "f64": np.float64}  # names to numpy types: the one map

    def numpy_dtype(self):
        return self.DTYPES[self.dtype]

    def validate(self):
        if self.dtype not in self.DTYPES:
            raise ShapeMismatch(f"dtype must be one of {sorted(self.DTYPES)}, got {self.dtype!r}")
        sizes = ("channels", "height", "width", "kernel_size", "hidden", "levels", "steps")
        small = [name for name in sizes if getattr(self, name) < 1]
        if small:
            raise ShapeMismatch(f"{', '.join(small)} must be >= 1")
        # 2^L divides a side only if 2^L <= side; test that first so that a
        # huge L from a file header never builds the 2^L integer
        fits = self.levels < min(self.height, self.width).bit_length()
        if not fits or self.height % 2**self.levels or self.width % 2**self.levels:
            raise ShapeMismatch(
                f"H={self.height}, W={self.width} must be divisible by 2^L=2^{self.levels}"
            )


class FlowModel:
    """Multi-scale stack: (squeeze, K steps, split) x (L-1), then squeeze
    and K steps; the final activation and every split half are Gaussian
    latents.

    ``layers`` holds the whole stack as one list of (name, layer) pairs in
    forward order.  A squeeze is ``(None, Squeeze)``.  Step s of level l is
    four entries named ``level{l}.step{s}.unit``, ``.actnorm``, ``.inv1x1``
    and ``.coupling``, and a split is ``level{l}.split``; each name
    prefixes its layer's parameter names."""

    def __init__(self, config: ModelConfig, rng=None, identity_init=False, data_init=True):
        config.validate()
        self.config = config
        dtype = config.numpy_dtype()
        self.dtype = dtype
        if rng is None:
            rng = np.random.default_rng(0)
        c, k = config.channels, config.kernel_size
        self.layers = []
        try:
            for lvl in range(config.levels):
                c *= 4
                self.layers.append((None, Squeeze))
                for step in range(config.steps):
                    name = f"level{lvl}.step{step}"
                    # built in this order: the rng draws follow it
                    self.layers += [
                        (f"{name}.unit", UnitLayer(c, k, rng, dtype, identity_init)),
                        (f"{name}.actnorm", ActNorm(c, dtype, data_init and not identity_init)),
                        (f"{name}.inv1x1", Inv1x1(c, rng, dtype, identity_init)),
                        (f"{name}.coupling", Coupling(c, config.hidden, rng, dtype)),
                    ]
                if lvl < config.levels - 1:
                    self.layers.append((f"level{lvl}.split", Split(c, rng, dtype)))
                    c //= 2
        except (MemoryError, ValueError) as exc:
            if not is_size_refusal(exc):
                raise
            raise ModelTooLarge(f"cannot allocate the parameters of {config}") from exc
        self.final_c = c
        self.prior_mean = Param(np.zeros(c, dtype=dtype))
        self.prior_log_sd = Param(np.zeros(c, dtype=dtype))
        self._cache = None

    # -- parameters ---------------------------------------------------------

    def named_params(self):
        for name, layer in self.layers:
            if name is not None:
                yield from layer.named_params(name)
        yield "prior.mean", self.prior_mean
        yield "prior.log_sd", self.prior_log_sd

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    def unit_params(self):
        """(param, orientation) pairs for every masked kernel."""
        for _, layer in self.layers:
            if isinstance(layer, UnitLayer):
                yield from zip(layer.kernels, UNIT_ORIENTATIONS)

    # -- forward / inverse --------------------------------------------------

    def _check_input(self, x):
        x = require_nchw(x)
        cfg = self.config
        if x.shape[1:] != (cfg.channels, cfg.height, cfg.width):
            raise ShapeMismatch(
                f"input {x.shape[1:]} does not match model {cfg.channels, cfg.height, cfg.width}"
            )
        if x.dtype != self.dtype:
            raise ShapeMismatch(f"input dtype {x.dtype} != model dtype {self.dtype}")
        return x

    def forward(self, x):
        """Returns (latents, logdet_total, logp_total) and stores the
        backward cache.  Totals are summed over the batch, in nats."""
        latents, logdet, logp, self._cache = self._forward(self._check_input(x))
        return latents, logdet, logp

    def _forward(self, x):
        """``forward`` of a checked batch, returning its backward cache as
        a fourth value instead of storing it."""
        h = x
        logdet = 0.0
        logp = 0.0
        latents = []
        caches = []
        for _, layer in self.layers:
            if layer is Squeeze:
                h, cache = Squeeze.forward(h), None
            elif isinstance(layer, Split):
                h, z, lp, cache = layer.forward(h)
                logp += lp
                latents.append(z)
            else:
                h, ld, cache = layer.forward(h)
                logdet += ld
            caches.append(cache)
        mean = self.prior_mean.value[None, :, None, None]
        log_sd = self.prior_log_sd.value[None, :, None, None]
        logp += float(gaussian_logp(h, mean, log_sd).sum())
        latents.append(h)
        return latents, logdet, logp, (caches, h)

    def latent_shapes(self, n):
        shapes = []
        c = self.config.channels
        h, w = self.config.height, self.config.width
        for lvl in range(self.config.levels):
            c *= 4
            h //= 2
            w //= 2
            if lvl < self.config.levels - 1:
                shapes.append((n, c // 2, h, w))
                c //= 2
        shapes.append((n, c, h, w))
        return shapes

    def inverse(self, latents, workers=1):
        """Reconstruct the input from a latent stack.  A batch of more than
        CHUNK_IMAGES runs in chunks on up to ``workers`` (>= 1) threads; the
        result is the same for any worker count."""
        require_workers(workers)
        shapes = self.latent_shapes(latents[-1].shape[0])
        if len(latents) != len(shapes):
            raise ShapeMismatch(f"expected {len(shapes)} latents, got {len(latents)}")
        for z, want in zip(latents, shapes):
            if tuple(z.shape) != want:
                raise ShapeMismatch(f"latent shape {z.shape}, expected {want}")
        zs = [z.astype(self.dtype, copy=False) for z in latents]
        return self._inverse_flow(zs[-1], zs[-2::-1], workers)

    def sample(self, n, temperature=1.0, rng=None, workers=1):
        """Draw ``n`` latents from the priors (std scaled by temperature)
        and run the inverse flow, in chunks as ``inverse`` does.  All noise
        is drawn first, in the order the flow visits the latents: the final
        one, then each split from the top level down."""
        require_workers(workers)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ShapeMismatch(f"n must be an integer >= 1, got {n!r}")
        if not (math.isfinite(temperature) and temperature >= 0.0):
            raise ShapeMismatch(f"temperature must be finite and >= 0, got {temperature}")
        if rng is None:
            rng = np.random.default_rng(0)
        shapes = self.latent_shapes(n)
        mean = np.broadcast_to(self.prior_mean.value[None, :, None, None], shapes[-1])
        sd = np.exp(self.prior_log_sd.value)[None, :, None, None]
        if temperature == 0.0:
            h = np.ascontiguousarray(mean, dtype=self.dtype)
            noise = [None] * (len(shapes) - 1)
        else:
            eps = rng.standard_normal(shapes[-1]).astype(self.dtype)
            h = (mean + sd * temperature * eps).astype(self.dtype)
            noise = [rng.standard_normal(shape) for shape in reversed(shapes[:-1])]
        return self._inverse_flow(h, noise, workers, temperature)

    def _inverse_flow(self, h, zs, workers, temperature=None):
        """Run the inverse flow from the final latent ``h`` on the batch's
        chunks.  ``zs`` holds one entry per split, top level first: its
        latent or, given a ``temperature``, the noise (None at 0) from
        which ``Split.sample_z`` makes the latent of each chunk."""

        def run(lo, hi):
            x = h[lo:hi]
            chunk_zs = iter(zs)
            for _, layer in reversed(self.layers):
                if isinstance(layer, Split):
                    z = next(chunk_zs)
                    z = None if z is None else z[lo:hi]
                    if temperature is not None:
                        z = layer.sample_z(x, temperature, z)
                    x = layer.inverse(x, z)
                else:
                    x = layer.inverse(x)
            return x

        parts = _run_chunks(len(h), workers, run)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # -- backward -----------------------------------------------------------

    def backward(self):
        """Accumulate gradients of mean-per-sample NLL = -(logp+logdet)/N
        into every parameter; returns the input gradient."""
        if self._cache is None:
            raise MissingCache("model backward requires a prior forward call")
        return self._backward(self._cache, -1.0 / self._cache[1].shape[0], PARAM_GRADS)

    def _backward(self, cache, gld, grads):
        """Backward from a ``_forward`` cache with grad_logdet ``gld``:
        adds every parameter gradient into the map ``grads`` and returns
        the input gradient."""
        caches, h_final = cache
        mean = self.prior_mean.value[None, :, None, None]
        log_sd = self.prior_log_sd.value[None, :, None, None]
        dz, dmean, dlog_sd = gaussian_logp_grads(h_final, mean, log_sd)
        g = gld * dz
        grads[self.prior_mean] += gld * dmean.sum(axis=(0, 2, 3))
        grads[self.prior_log_sd] += gld * dlog_sd.sum(axis=(0, 2, 3))
        for (_, layer), cache in zip(reversed(self.layers), reversed(caches)):
            if layer is Squeeze:
                g = Squeeze.backward(g)
            else:
                g = layer.backward(g, gld, cache, grads)
        return g

    def forward_backward(self, x, workers=1):
        """Forward and backward of the mean NLL -(logp+logdet)/N of the
        batch ``x``: returns (logdet_total, logp_total) and sets every
        parameter's ``grad`` to the batch's gradient.

        The batch runs in near-equal chunks of at most TRAIN_CHUNK_IMAGES on
        up to ``workers`` (>= 1) threads, as ``sample`` does.  Each chunk
        adds its gradients into a map of its own with grad_logdet -1/N; the
        maps and the totals are summed in chunk order once every chunk has
        finished, so the result is the same for any worker count.  While an
        ActNorm awaits its data-dependent init, the batch is one chunk, so
        the init sees all of it.  A cache left by ``forward`` is dropped:
        the step that uses these gradients moves the parameters it holds."""
        require_workers(workers)
        x = self._check_input(x)
        self._cache = None
        n = x.shape[0]
        params = [p for _, p in self.named_params()]

        def run(lo, hi):
            _, logdet, logp, cache = self._forward(x[lo:hi])
            grads = {p: np.zeros_like(p.value) for p in params}
            self._backward(cache, -1.0 / n, grads)
            return logdet, logp, grads

        pending = any(isinstance(layer, ActNorm) and layer.pending_init
                      for _, layer in self.layers)
        parts = _run_chunks(n, workers, run, n if pending else TRAIN_CHUNK_IMAGES)
        logdet, logp, total = parts[0]
        for chunk_logdet, chunk_logp, grads in parts[1:]:
            logdet += chunk_logdet
            logp += chunk_logp
            for p in params:
                total[p] += grads[p]
        for p in params:
            p.grad = total[p]
        return logdet, logp
