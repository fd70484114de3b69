"""Masked invertible convolution blocks.

A block convolves a corner-padded input with a k x k kernel whose anchor
tap (the one multiplying each pixel itself) is frozen to the channel
identity.  Vectorized in raster order the operation is a unit-diagonal
triangular matrix, so it is exactly invertible with log-det zero.  Three
inverse paths are provided:

* ``dense_invert``       -- triangular solve of the explicit matrix (oracle)
* ``pcb_invert_reference`` -- sequential raster back-substitution (oracle)
* ``pcb_invert_wavefront`` -- anti-diagonal sweep; all elements of a
  diagonal are solved together by one batched gather and one matrix
  contraction, and each diagonal reads the ones before it: H+W-1
  sequential phases total.  The ``workers`` argument is accepted for API
  and CLI stability; results are identical for any value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import IndivisibleChannels, ShapeMismatch, TooLargeForDense
from .tensor import (
    Orientation,
    channel_concat,
    channel_split,
    flip,
    pad_oriented,
    require_nchw,
)

DENSE_CAP = 4096

# Quarter i of the unit input is convolved under UNIT_ORIENTATIONS[i].
UNIT_ORIENTATIONS = (Orientation.TL, Orientation.TR, Orientation.BR, Orientation.BL)

_OPPOSITE = {
    Orientation.TL: Orientation.BR,
    Orientation.TR: Orientation.BL,
    Orientation.BL: Orientation.TR,
    Orientation.BR: Orientation.TL,
}


def anchor_position(orientation: Orientation, k: int) -> tuple[int, int]:
    """Spatial tap multiplying pixel (i, j) itself under this padding."""
    return (k - 1 if orientation.pads_top else 0, k - 1 if orientation.pads_left else 0)


def _tap_offsets(orientation: Orientation, k: int) -> tuple[int, int]:
    """(dv, dh) such that tap (p, q) reads input pixel (i+p+dv, j+q+dh)."""
    dv = -(k - 1) if orientation.pads_top else 0
    dh = -(k - 1) if orientation.pads_left else 0
    return dv, dh


@dataclass
class MaskedKernel:
    """Convolution weights (C_out, C_in, k, k) with a frozen anchor tap.

    The anchor constraint (identity block at ``anchor_position``) is
    established by ``apply_anchor_mask`` / the factory functions and
    maintained by the training loop; it is not re-enforced on every
    construction so that diagnostics can build deliberately broken
    kernels.
    """

    weights: np.ndarray
    orientation: Orientation

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 4 or w.shape[0] != w.shape[1] or w.shape[2] != w.shape[3]:
            raise ShapeMismatch(f"kernel must be (C, C, k, k), got {w.shape}")
        self.weights = w

    @property
    def channels(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[2]

    @property
    def anchor(self) -> tuple[int, int]:
        return anchor_position(self.orientation, self.k)


@dataclass
class PaddedConvBlock:
    """A masked kernel paired with its padding orientation."""

    kernel: MaskedKernel

    @property
    def orientation(self) -> Orientation:
        return self.kernel.orientation


@dataclass
class FincFlowUnit:
    """Four padded convolution blocks acting on channel quarters.

    Quarter i is processed by blocks[i]; orientations are fixed to
    (TL, TR, BR, BL) and every block shares the same kernel size.
    """

    blocks: list[PaddedConvBlock]

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise ShapeMismatch(f"unit needs exactly 4 blocks, got {len(self.blocks)}")
        for blk, want in zip(self.blocks, UNIT_ORIENTATIONS):
            if blk.orientation is not want:
                raise ShapeMismatch(
                    f"unit block orientation {blk.orientation} != {want}"
                )
        ks = {blk.kernel.k for blk in self.blocks}
        cs = {blk.kernel.channels for blk in self.blocks}
        if len(ks) != 1 or len(cs) != 1:
            raise ShapeMismatch("unit blocks must share k and channel count")

    @property
    def k(self) -> int:
        return self.blocks[0].kernel.k

    @property
    def channels(self) -> int:
        """Channel count of the full unit input (4x the per-block count)."""
        return 4 * self.blocks[0].kernel.channels


@dataclass
class InvertStats:
    """Instrumentation for one inversion call.

    ``phases`` counts sequential anti-diagonal sweeps.  ``madds``
    counts multiply-adds over all output elements: each in-bounds
    non-anchor spatial tap of one output element contributes C (one per
    input channel).  ``max_element_madds`` is the worst single-element
    count, bounded by k*k*C.
    """

    phases: int = 0
    madds: int = 0
    max_element_madds: int = 0


def apply_anchor_mask(kernel: MaskedKernel) -> MaskedKernel:
    """Return a copy with the anchor tap forced to the channel identity."""
    w = kernel.weights.copy()
    ah, aw = kernel.anchor
    w[:, :, ah, aw] = np.eye(kernel.channels, dtype=w.dtype)
    return MaskedKernel(w, kernel.orientation)


def mask_anchor_gradient(grad: np.ndarray, orientation: Orientation) -> np.ndarray:
    """Zero the gradient at the frozen anchor positions."""
    g = np.asarray(grad).copy()
    ah, aw = anchor_position(orientation, g.shape[2])
    g[:, :, ah, aw] = 0.0
    return g


def identity_kernel(c: int, k: int, orientation: Orientation, dtype=np.float64) -> MaskedKernel:
    w = np.zeros((c, c, k, k), dtype=dtype)
    return apply_anchor_mask(MaskedKernel(w, orientation))


def random_masked_kernel(
    c: int, k: int, orientation: Orientation, rng: np.random.Generator, dtype=np.float64
) -> MaskedKernel:
    """Off-anchor taps U(-0.5, 0.5)/k^2; anchor identity.

    The scaling keeps the triangular system strongly diagonally dominant
    so float32 round trips stay well conditioned.
    """
    w = ((rng.random((c, c, k, k)) - 0.5) / (k * k)).astype(dtype)
    return apply_anchor_mask(MaskedKernel(w, orientation))


def identity_unit(c: int, k: int, dtype=np.float64) -> FincFlowUnit:
    if c % 4 != 0:
        raise IndivisibleChannels(f"unit needs C divisible by 4, got {c}")
    return FincFlowUnit(
        [PaddedConvBlock(identity_kernel(c // 4, k, o, dtype)) for o in UNIT_ORIENTATIONS]
    )


def random_unit(c: int, k: int, rng: np.random.Generator, dtype=np.float64) -> FincFlowUnit:
    if c % 4 != 0:
        raise IndivisibleChannels(f"unit needs C divisible by 4, got {c}")
    return FincFlowUnit(
        [
            PaddedConvBlock(random_masked_kernel(c // 4, k, o, rng, dtype))
            for o in UNIT_ORIENTATIONS
        ]
    )


def _flip_kernel_to_tl(kern: MaskedKernel) -> np.ndarray:
    """Kernel weights of the equivalent TL-padded block."""
    axes = tuple(
        ax
        for name, ax in (("height", 2), ("width", 3))
        if name in kern.orientation.flip_axes
    )
    if not axes:
        return kern.weights
    return np.ascontiguousarray(np.flip(kern.weights, axis=axes))


# ---------------------------------------------------------------------------
# forward


def _forward_tl(x: np.ndarray, kw: np.ndarray) -> np.ndarray:
    k = kw.shape[-1]
    h, w = x.shape[2], x.shape[3]
    xp = pad_oriented(x, Orientation.TL, k)
    y = np.zeros_like(x)
    for p in range(k):
        for q in range(k):
            y += np.einsum("oc,nchw->nohw", kw[:, :, p, q], xp[:, :, p : p + h, q : q + w])
    return y


def pcb_forward(x: np.ndarray, pcb: PaddedConvBlock) -> np.ndarray:
    """Cross-correlate the oriented zero-padding of x with the kernel.

    Non-TL orientations are computed by flipping to TL form and back, so
    the reduction identity holds bit-exactly.  Output dims equal input
    dims; the log-det contribution is exactly 0.
    """
    x = require_nchw(x)
    kern = pcb.kernel
    if x.shape[1] != kern.channels:
        raise ShapeMismatch(f"input has C={x.shape[1]}, kernel expects {kern.channels}")
    fl = pcb.orientation.flip_axes
    kw = _flip_kernel_to_tl(kern).astype(x.dtype, copy=False)
    return flip(_forward_tl(flip(x, fl), kw), fl)


def pcb_backward(
    grad_y: np.ndarray, x: np.ndarray, pcb: PaddedConvBlock
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar through pcb_forward: (grad_x, grad_weights).

    The input gradient is itself a padded convolution: opposite corner,
    kernel transposed over channels and flipped over both spatial axes.
    """
    grad_y = require_nchw(grad_y)
    x = require_nchw(x)
    kern = pcb.kernel
    k, h, w = kern.k, x.shape[2], x.shape[3]
    adj_w = np.ascontiguousarray(kern.weights.swapaxes(0, 1)[:, :, ::-1, ::-1])
    adj = PaddedConvBlock(MaskedKernel(adj_w, _OPPOSITE[pcb.orientation]))
    grad_x = pcb_forward(grad_y, adj)
    xp = pad_oriented(x, pcb.orientation, k)
    grad_w = np.zeros_like(kern.weights)
    for p in range(k):
        for q in range(k):
            grad_w[:, :, p, q] = np.einsum(
                "nohw,nchw->oc", grad_y, xp[:, :, p : p + h, q : q + w]
            )
    return grad_x, grad_w


def unit_forward(x: np.ndarray, unit: FincFlowUnit) -> tuple[np.ndarray, float]:
    """Convolve each channel quarter with its block; log-det is always 0."""
    x = require_nchw(x)
    if x.shape[1] != unit.channels:
        raise IndivisibleChannels(
            f"unit expects C={unit.channels}, got {x.shape[1]}"
        )
    quarters = channel_split(x, 4)
    outs = [pcb_forward(q, blk) for q, blk in zip(quarters, unit.blocks)]
    return channel_concat(outs), 0.0


def unit_backward(
    grad_y: np.ndarray, x: np.ndarray, unit: FincFlowUnit
) -> tuple[np.ndarray, list[np.ndarray]]:
    gys = channel_split(grad_y, 4)
    xs = channel_split(x, 4)
    grads_x, grads_w = [], []
    for gy, xq, blk in zip(gys, xs, unit.blocks):
        gx, gw = pcb_backward(gy, xq, blk)
        grads_x.append(gx)
        grads_w.append(gw)
    return channel_concat(grads_x), grads_w


# ---------------------------------------------------------------------------
# dense convolution-matrix oracle


def vectorize_hwc(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> (N, H*W*C): pixels in raster order, channels innermost."""
    n = x.shape[0]
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, -1)


def unvectorize_hwc(v: np.ndarray, c: int, h: int, w: int) -> np.ndarray:
    return np.ascontiguousarray(v.reshape(-1, h, w, c).transpose(0, 3, 1, 2))


def build_conv_matrix(pcb: PaddedConvBlock, h: int, w: int) -> np.ndarray:
    """Dense (HWC x HWC) matrix M with vec_hwc(y) = M @ vec_hwc(x).

    Row/column index of (pixel i,j, channel c) is (i*W + j)*C + c.  Each
    row has at most k*k*C nonzeros.  Float64 regardless of model dtype;
    this is an oracle, not a fast path.
    """
    kern = pcb.kernel
    c, k = kern.channels, kern.k
    side = h * w * c
    if side > DENSE_CAP:
        raise TooLargeForDense(f"H*W*C = {side} exceeds dense cap {DENSE_CAP}")
    dv, dh = _tap_offsets(pcb.orientation, k)
    kw = kern.weights.astype(np.float64)
    m = np.zeros((side, side))
    for i in range(h):
        for j in range(w):
            row0 = (i * w + j) * c
            for p in range(k):
                ii = i + p + dv
                if not 0 <= ii < h:
                    continue
                for q in range(k):
                    jj = j + q + dh
                    if not 0 <= jj < w:
                        continue
                    col0 = (ii * w + jj) * c
                    m[row0 : row0 + c, col0 : col0 + c] += kw[:, :, p, q]
    return m


def canonical_permutation(orientation: Orientation, h: int, w: int, c: int) -> np.ndarray:
    """Index order in which this orientation's matrix is lower triangular.

    Rows ascend with the padded sides: height ascending iff the top is
    padded, width ascending iff the left is padded, channels always
    innermost and ascending.
    """
    rows = np.arange(h) if orientation.pads_top else np.arange(h)[::-1]
    cols = np.arange(w) if orientation.pads_left else np.arange(w)[::-1]
    pix = (rows[:, None] * w + cols[None, :]) * c
    return (pix[:, :, None] + np.arange(c)).reshape(-1)


def dense_invert(y: np.ndarray, pcb: PaddedConvBlock) -> np.ndarray:
    """Invert through an explicit triangular solve of the dense matrix."""
    y = require_nchw(y)
    n, c, h, w = y.shape
    if c != pcb.kernel.channels:
        raise ShapeMismatch(f"input has C={c}, kernel expects {pcb.kernel.channels}")
    m = build_conv_matrix(pcb, h, w)
    perm = canonical_permutation(pcb.orientation, h, w, c)
    mc = m[np.ix_(perm, perm)]
    side = h * w * c
    out = np.empty((n, side))
    vecs = vectorize_hwc(y.astype(np.float64))
    for s in range(n):
        bc = vecs[s][perm]
        xc = np.empty(side)
        for r in range(side):
            acc = mc[r, :r] @ xc[:r] if r else 0.0
            xc[r] = (bc[r] - acc) / mc[r, r]
        xv = np.empty(side)
        xv[perm] = xc
        out[s] = xv
    return unvectorize_hwc(out, c, h, w).astype(y.dtype)


# ---------------------------------------------------------------------------
# sequential reference inversion


def pcb_invert_reference(y: np.ndarray, pcb: PaddedConvBlock) -> np.ndarray:
    """Single-threaded back-substitution in the orientation's raster order.

    Channels are resolved together per pixel; with the identity anchor
    block they carry no intra-pixel dependency, matching the 0..C-1
    channel-inner ordering.
    """
    y = require_nchw(y)
    kern = pcb.kernel
    if y.shape[1] != kern.channels:
        raise ShapeMismatch(f"input has C={y.shape[1]}, kernel expects {kern.channels}")
    n, c, h, w = y.shape
    k = kern.k
    dv, dh = _tap_offsets(pcb.orientation, k)
    anchor = kern.anchor
    kw = kern.weights.astype(y.dtype, copy=False)
    taps = [(p, q) for p in range(k) for q in range(k) if (p, q) != anchor]
    i_order = range(h) if pcb.orientation.pads_top else range(h - 1, -1, -1)
    j_order = (
        list(range(w)) if pcb.orientation.pads_left else list(range(w - 1, -1, -1))
    )
    x = np.empty_like(y)
    for s in range(n):
        for i in i_order:
            for j in j_order:
                acc = np.zeros(c, dtype=y.dtype)
                for p, q in taps:
                    ii = i + p + dv
                    jj = j + q + dh
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += kw[:, :, p, q] @ x[s, :, ii, jj]
                x[s, :, i, j] = y[s, :, i, j] - acc
    return x


# ---------------------------------------------------------------------------
# wavefront inversion


class _Diagonal(NamedTuple):
    """One anti-diagonal of the flattened (Hp*Wp) padded pixel plane."""

    target: slice  # its pixels: consecutive ones sit Wp-1 apart
    gather: np.ndarray  # (P, k*k-1) source of every non-anchor tap
    taps: int  # in-bounds non-anchor taps summed over the diagonal
    max_taps: int  # most in-bounds non-anchor taps of any one pixel


@lru_cache(maxsize=32)
def _wavefront_plan(h: int, w: int, k: int) -> tuple[_Diagonal, ...]:
    """Per-diagonal gather plan for an (h, w) image padded by k-1 on the
    top and left.  Every unit at one level shares it, so it is cached;
    the index arrays are read-only because every caller gets the same ones."""
    wp = w + k - 1
    th, tw = np.divmod(np.arange(1, k * k), k)  # non-anchor taps (k_h, k_w)
    plan = []
    for d in range(h + w - 1):
        hs = np.arange(max(0, d - (w - 1)), min(h - 1, d) + 1)
        ws = d - hs
        pix = (hs + k - 1) * wp + ws + k - 1
        gather = pix[:, None] - (th * wp + tw)
        gather.setflags(write=False)
        inb = ((hs[:, None] >= th) & (ws[:, None] >= tw)).sum(axis=1)
        target = slice(pix[0], pix[-1] + 1, max(wp - 1, 1))  # wp == 1: one pixel
        plan.append(_Diagonal(target, gather, int(inb.sum()), int(inb.max())))
    return tuple(plan)


def _wavefront_invert_tl(
    y: np.ndarray,
    kernels: np.ndarray,
    stats: InvertStats | None = None,
) -> np.ndarray:
    """Core anti-diagonal solver for TL-padded blocks.

    y: (G, N, C, H, W) stacked problems; kernels: (G, C, C, k, k), one
    kernel per group.  For every diagonal d the update

        X[c,h,w] -= sum over non-anchor taps of
                    X[k_c, h-k_h, w-k_w] * K[c, k_c, k-1-k_h, k-1-k_w]

    is one gather of the (G, P, (k*k-1)*C, N) patch of all P pixels on
    the diagonal and one batched matmul with the (G, C, (k*k-1)*C) tap
    matrix.  Out-of-image taps read the zero padding, so no tap needs a
    validity mask.  The H+W-1 diagonals are the sequential phases: each
    reads the values the previous ones wrote.
    """
    g_cnt, n, c, h, w = y.shape
    k = kernels.shape[-1]
    plan = _wavefront_plan(h, w, k)
    # Batch innermost: a gathered pixel is one contiguous (C, N) block.
    xp = np.zeros((g_cnt, h + k - 1, w + k - 1, c, n), dtype=y.dtype)
    xp[:, k - 1 :, k - 1 :] = y.transpose(0, 3, 4, 2, 1)
    flat = xp.reshape(g_cnt, -1, c, n)
    # tapmat[g, c, t*C + k_c] = K[g, c, k_c, k-1-k_h, k-1-k_w], tap t = k_h*k + k_w
    kflip = kernels[:, :, :, ::-1, ::-1].astype(y.dtype, copy=False)
    tapmat = np.ascontiguousarray(
        kflip.reshape(g_cnt, c, c, k * k)[..., 1:].transpose(0, 1, 3, 2)
    ).reshape(g_cnt, 1, c, (k * k - 1) * c)
    for diag in plan:
        patch = np.take(flat, diag.gather, axis=1)  # (G, P, k*k-1, C, N)
        patch = patch.reshape(g_cnt, len(diag.gather), (k * k - 1) * c, n)
        flat[:, diag.target] -= np.matmul(tapmat, patch)
    if stats is not None:
        stats.phases += len(plan)
        stats.madds += g_cnt * n * c * c * sum(diag.taps for diag in plan)
        stats.max_element_madds = max(
            stats.max_element_madds, c * max(diag.max_taps for diag in plan)
        )
    return np.ascontiguousarray(xp[:, k - 1 :, k - 1 :].transpose(0, 4, 3, 1, 2))


def pcb_invert_wavefront(
    y: np.ndarray,
    pcb: PaddedConvBlock,
    workers: int = 1,
    stats: InvertStats | None = None,
) -> np.ndarray:
    """Invert pcb_forward via the anti-diagonal sweep of H+W-1 phases.

    Non-TL orientations are flipped to TL form, solved, and flipped back.
    ``workers`` must be >= 1; it is kept for API stability and the result
    is identical for any value.
    """
    y = require_nchw(y)
    if y.shape[1] != pcb.kernel.channels:
        raise ShapeMismatch(
            f"input has C={y.shape[1]}, kernel expects {pcb.kernel.channels}"
        )
    if workers < 1:
        raise ShapeMismatch(f"workers must be >= 1, got {workers}")
    fl = pcb.orientation.flip_axes
    y_tl = flip(y, fl)
    k_tl = _flip_kernel_to_tl(pcb.kernel)
    x_tl = _wavefront_invert_tl(y_tl[np.newaxis], k_tl[np.newaxis], stats)[0]
    return flip(x_tl, fl)


def unit_invert(
    y: np.ndarray,
    unit: FincFlowUnit,
    workers: int = 1,
    stats: InvertStats | None = None,
) -> np.ndarray:
    """Invert a whole unit in one batched TL sweep.

    The four quarters (and kernels) are flipped to TL form and stacked
    along a group axis, so all four blocks share every phase; the phase
    count stays H+W-1 for the whole unit.  ``workers`` is validated as in
    ``pcb_invert_wavefront`` and does not change the result.
    """
    y = require_nchw(y)
    if y.shape[1] != unit.channels:
        raise IndivisibleChannels(f"unit expects C={unit.channels}, got {y.shape[1]}")
    if workers < 1:
        raise ShapeMismatch(f"workers must be >= 1, got {workers}")
    quarters = channel_split(y, 4)
    ys = []
    ks = []
    for q, blk in zip(quarters, unit.blocks):
        ys.append(flip(q, blk.orientation.flip_axes))
        ks.append(_flip_kernel_to_tl(blk.kernel))
    stacked = np.stack(ys)
    kstack = np.stack(ks)
    solved = _wavefront_invert_tl(stacked, kstack, stats)
    outs = [
        flip(solved[i], blk.orientation.flip_axes)
        for i, blk in enumerate(unit.blocks)
    ]
    return channel_concat(outs)
