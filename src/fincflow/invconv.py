"""Masked invertible convolution blocks.

The one block type is ``MaskedKernel``: k x k weights plus the padding
orientation they are applied under.  A block convolves the input, padded
by k-1 at the orientation's corner, with a kernel whose anchor tap (the
one multiplying each pixel itself) is frozen to the channel identity.
Vectorized in raster order the operation is a unit-diagonal triangular
matrix, so it is exactly invertible with log-det zero.  A
``FincFlowUnit`` is four blocks, one per channel quarter, each padded at
a different corner.  A block is one channel group and a unit is four:
forward, backward and the fast inverse each run one group path that
reads and writes every group in TL form through flipped views, one copy
into the padded plane and one into the output.  Three inverse paths:

* ``dense_invert``       -- triangular solve of the explicit matrix (oracle)
* ``pcb_invert_reference`` -- sequential raster back-substitution (oracle)
* ``pcb_invert_wavefront`` / ``unit_invert`` -- anti-diagonal sweep; all
  elements of a diagonal are solved together by one batched gather and
  one matrix contraction, and each diagonal reads the ones before it:
  H+W-1 sequential phases total, shared by every block of a unit, all on
  the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import IndivisibleChannels, ShapeMismatch, TooLargeForDense
from .tensor import Orientation, correlate, correlate_wgrad, require_nchw
# Not called here; bound because perfbench/tracing.py wraps them in this namespace.
from .tensor import channel_concat, channel_split, flip, pad_oriented  # noqa: F401

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


@dataclass
class MaskedKernel:
    """One block: weights (C_out, C_in, k, k) applied under the padding of
    ``orientation``, with a frozen anchor tap.

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
        if w.ndim != 4 or w.shape[0] != w.shape[1] or w.shape[2] != w.shape[3] or not w.size:
            raise ShapeMismatch(f"kernel must be (C, C, k, k) with C, k >= 1, got {w.shape}")
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
class FincFlowUnit:
    """Four masked kernels acting on channel quarters.

    Quarter i is processed by blocks[i]; orientations are fixed to
    (TL, TR, BR, BL) and every block shares the same kernel size.
    """

    blocks: list[MaskedKernel]

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise ShapeMismatch(f"unit needs exactly 4 blocks, got {len(self.blocks)}")
        for blk, want in zip(self.blocks, UNIT_ORIENTATIONS):
            if blk.orientation is not want:
                raise ShapeMismatch(
                    f"unit block orientation {blk.orientation} != {want}"
                )
        ks = {blk.k for blk in self.blocks}
        cs = {blk.channels for blk in self.blocks}
        if len(ks) != 1 or len(cs) != 1:
            raise ShapeMismatch("unit blocks must share k and channel count")

    @property
    def k(self) -> int:
        return self.blocks[0].k

    @property
    def channels(self) -> int:
        """Channel count of the full unit input (4x the per-block count)."""
        return 4 * self.blocks[0].channels


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
    return FincFlowUnit([identity_kernel(c // 4, k, o, dtype) for o in UNIT_ORIENTATIONS])


def random_unit(c: int, k: int, rng: np.random.Generator, dtype=np.float64) -> FincFlowUnit:
    if c % 4 != 0:
        raise IndivisibleChannels(f"unit needs C divisible by 4, got {c}")
    return FincFlowUnit(
        [random_masked_kernel(c // 4, k, o, rng, dtype) for o in UNIT_ORIENTATIONS]
    )


# Each orientation's index of ``_tl_view``, made once: reading the two
# Orientation properties cost three times the slice itself per call.
_TL_INDEX = {
    o: (..., *(slice(None, None, 1 if pad else -1) for pad in (o.pads_top, o.pads_left)))
    for o in Orientation
}


def _tl_view(a: np.ndarray, orientation: Orientation) -> np.ndarray:
    """``a`` flipped over its last two axes into TL form, the orientation's
    raster order: a view, no copy.  The flip is its own inverse, so a TL-form
    result written through the view of an output lands in the orientation's frame."""
    return a[_TL_INDEX[orientation]]


def _groups(a: np.ndarray, c: int) -> list[np.ndarray]:
    """Views of the consecutive c-channel groups of ``a``."""
    return [a[:, i : i + c] for i in range(0, a.shape[1], c)]


def _forward(x: np.ndarray, kernels: list[MaskedKernel]) -> np.ndarray:
    """Convolve channel group g of x with kernels[g] (all of one C and k).
    Each group is zero-padded in TL form straight from the TL view of its
    channel slice, correlated with its TL kernel, which writes its rows
    through the TL view of its slice of the one output."""
    n, _, h, w = x.shape
    c, k = kernels[0].channels, kernels[0].k
    y = np.empty_like(x)
    # every group fills the same interior, so the zero border is shared
    xp = np.zeros((n, c, h + k - 1, w + k - 1), dtype=x.dtype)
    for xg, yg, kern in zip(_groups(x, c), _groups(y, c), kernels):
        xp[:, :, k - 1 :, k - 1 :] = _tl_view(xg, kern.orientation)
        kw = _tl_view(kern.weights, kern.orientation).astype(x.dtype, copy=False)
        correlate(xp, kw, out=_tl_view(yg, kern.orientation))
    return y


def _backward(
    grad_y: np.ndarray, x: np.ndarray, kernels: list[MaskedKernel]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gradients of a scalar through ``_forward``: (grad_x, grad_weights).
    The input gradient is itself a ``_forward``: opposite corner, kernel
    transposed over channels and flipped over both spatial axes.  Each
    weight gradient is one ``correlate_wgrad`` of x zero-padded at its
    group's own corner (written through the TL view of one padded plane
    that all groups share), cast to the kernel's dtype."""
    adjoint = [
        MaskedKernel(kern.weights.swapaxes(0, 1)[:, :, ::-1, ::-1], _OPPOSITE[kern.orientation])
        for kern in kernels
    ]
    n, _, h, w = x.shape
    c, k = kernels[0].channels, kernels[0].k
    grads_w = []
    xp = np.empty((n, c, h + k - 1, w + k - 1), dtype=x.dtype)
    for xg, gyg, kern in zip(_groups(x, c), _groups(grad_y, c), kernels):
        tl = _tl_view(xp, kern.orientation)
        # the previous group's interior may cover this group's border
        tl[:, :, : k - 1] = 0.0
        tl[:, :, :, : k - 1] = 0.0
        tl[:, :, k - 1 :, k - 1 :] = _tl_view(xg, kern.orientation)
        grads_w.append(correlate_wgrad(gyg, xp, k).astype(kern.weights.dtype, copy=False))
    return _forward(grad_y, adjoint), grads_w


def _operands(error: type, kernels: list[MaskedKernel], *arrays) -> list[np.ndarray]:
    """Rank-4 float operands of one shape whose channels are the groups of ``kernels``."""
    arrays = [require_nchw(a) for a in arrays]
    if arrays[0].shape[1] != len(kernels) * kernels[0].channels:
        raise error(f"input has C={arrays[0].shape[1]}, kernels want {kernels[0].channels} each")
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ShapeMismatch(f"operand shapes differ: {[a.shape for a in arrays]}")
    return arrays


def pcb_forward(x: np.ndarray, kern: MaskedKernel) -> np.ndarray:
    """Cross-correlate the oriented zero-padding of x with the kernel, in
    TL form through flipped views, so the reduction identity holds
    bit-exactly.  Output dims equal input dims; the log-det is exactly 0."""
    (x,) = _operands(ShapeMismatch, [kern], x)
    return _forward(x, [kern])


def pcb_backward(
    grad_y: np.ndarray, x: np.ndarray, kern: MaskedKernel
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar through pcb_forward: (grad_x, grad_weights)."""
    grad_y, x = _operands(ShapeMismatch, [kern], grad_y, x)
    grad_x, (grad_w,) = _backward(grad_y, x, [kern])
    return grad_x, grad_w


def unit_forward(x: np.ndarray, unit: FincFlowUnit) -> tuple[np.ndarray, float]:
    """Convolve each channel quarter with its block; log-det is always 0."""
    (x,) = _operands(IndivisibleChannels, unit.blocks, x)
    return _forward(x, unit.blocks), 0.0


def unit_backward(
    grad_y: np.ndarray, x: np.ndarray, unit: FincFlowUnit
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gradients through unit_forward: grad_x and one weight gradient per block."""
    grad_y, x = _operands(IndivisibleChannels, unit.blocks, grad_y, x)
    return _backward(grad_y, x, unit.blocks)


# ---------------------------------------------------------------------------
# dense convolution-matrix oracle


def vectorize_hwc(x: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> (N, H*W*C): pixels in raster order, channels innermost."""
    n = x.shape[0]
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, -1)


def _conv_matrix(kern: MaskedKernel, pos: np.ndarray) -> np.ndarray:
    """Dense f64 matrix of the block with pixel (i, j) at row and column
    block ``pos[i, j]``, channels innermost.  Each tap is one indexed add
    over the pixels it reads in bounds; a pixel's taps read distinct
    pixels, so no entry is written twice."""
    h, w = pos.shape
    c, k = kern.channels, kern.k
    side = h * w * c
    if side > DENSE_CAP:
        raise TooLargeForDense(f"H*W*C = {side} exceeds dense cap {DENSE_CAP}")
    ah, aw = kern.anchor
    kw = kern.weights.astype(np.float64)
    m = np.zeros((side, side))
    blocks = m.reshape(h * w, c, h * w, c)
    # padded so that src[i+p, j+q] is input pixel (i+p-ah, j+q-aw); -1 outside
    src = np.pad(pos, ((ah, k - 1 - ah), (aw, k - 1 - aw)), constant_values=-1)
    for p in range(k):
        for q in range(k):
            cols = src[p : p + h, q : q + w]
            inb = cols >= 0
            blocks[pos[inb], :, cols[inb], :] += kw[:, :, p, q]
    return m


def build_conv_matrix(kern: MaskedKernel, h: int, w: int) -> np.ndarray:
    """Dense (HWC x HWC) matrix M with vec_hwc(y) = M @ vec_hwc(x): (pixel
    i,j, channel c) is row/column (i*W + j)*C + c, the raster order a TL block
    is solved in.  Each row has at most k*k*C nonzeros.  Float64 regardless
    of model dtype; this is an oracle, not a fast path."""
    return _conv_matrix(kern, np.arange(h * w).reshape(h, w))


def canonical_permutation(orientation: Orientation, h: int, w: int, c: int) -> np.ndarray:
    """Index order in which this orientation's matrix is lower triangular:
    pixels in its raster order (rows ascend iff the top is padded, columns
    iff the left is), channels innermost and ascending."""
    pix = _tl_view(np.arange(h * w).reshape(h, w), orientation)
    return (pix[:, :, None] * c + np.arange(c)).reshape(-1)


def dense_invert(y: np.ndarray, kern: MaskedKernel) -> np.ndarray:
    """Invert through an explicit triangular solve of the dense matrix,
    all images at once.  The matrix is built in the orientation's raster
    order, the order it is solved in, and only its lower triangle is read."""
    # imported here: scipy would dominate the import time of this module,
    # and only the dense oracle uses it
    from scipy.linalg import solve_triangular

    y = require_nchw(y)
    n, c, h, w = y.shape
    if c != kern.channels:
        raise ShapeMismatch(f"input has C={c}, kernel expects {kern.channels}")
    # a raster order only keeps or reverses rows and columns, so this
    # permutation is its own inverse: entry (i, j) is pixel (i, j)'s position
    mc = _conv_matrix(kern, canonical_permutation(kern.orientation, h, w, 1).reshape(h, w))
    vecs = vectorize_hwc(_tl_view(y, kern.orientation).astype(np.float64))
    sol = solve_triangular(mc, vecs.T, lower=True).T
    x = sol.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(_tl_view(x, kern.orientation), dtype=y.dtype)


# ---------------------------------------------------------------------------
# sequential reference inversion


def pcb_invert_reference(y: np.ndarray, kern: MaskedKernel) -> np.ndarray:
    """Single-threaded back-substitution in the orientation's raster order.

    Channels are resolved together per pixel; with the identity anchor
    block they carry no intra-pixel dependency, matching the 0..C-1
    channel-inner ordering.
    """
    y = require_nchw(y)
    if y.shape[1] != kern.channels:
        raise ShapeMismatch(f"input has C={y.shape[1]}, kernel expects {kern.channels}")
    n, c, h, w = y.shape
    k = kern.k
    ah, aw = kern.anchor  # tap (p, q) reads input pixel (i+p-ah, j+q-aw)
    kw = kern.weights.astype(y.dtype, copy=False)
    taps = [(p, q) for p in range(k) for q in range(k) if (p, q) != (ah, aw)]
    pixels = [divmod(pix, w) for pix in canonical_permutation(kern.orientation, h, w, 1).tolist()]
    x = np.empty_like(y)
    for s in range(n):
        for i, j in pixels:
            acc = np.zeros(c, dtype=y.dtype)
            for p, q in taps:
                ii = i + p - ah
                jj = j + q - aw
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


def _invert(
    y: np.ndarray, kernels: list[MaskedKernel], stats: InvertStats | None
) -> np.ndarray:
    """Invert ``_forward``: channel group g of y under kernels[g], all
    groups in one TL-form anti-diagonal sweep.  Each group is copied from
    the TL view of its channel slice into its group of one padded
    (G, Hp, Wp, C, N) buffer and its solution is copied back through the
    same view.  For every diagonal d the update

        X[c,h,w] -= sum over non-anchor taps of
                    X[k_c, h-k_h, w-k_w] * K[c, k_c, k-1-k_h, k-1-k_w]

    (K the TL-form kernel) is one gather of the (G, P, (k*k-1)*C, N)
    patch of all P pixels on the diagonal and one batched matmul with
    the (G, C, (k*k-1)*C) tap matrix.  For one image (N = 1) that matmul
    would be G*P matrix-vector products, so the pixels become the rows
    of one (P, (k*k-1)*C) @ ((k*k-1)*C, C) product per group instead.
    Out-of-image taps read the zero padding, so no tap needs a validity
    mask.  The H+W-1 diagonals are the sequential phases: each reads the
    values the previous ones wrote.
    """
    n, _, h, w = y.shape
    g_cnt, c, k = len(kernels), kernels[0].channels, kernels[0].k
    plan = _wavefront_plan(h, w, k)
    # Batch innermost: a gathered pixel is one contiguous (C, N) block.
    xp = np.zeros((g_cnt, h + k - 1, w + k - 1, c, n), dtype=y.dtype)
    # tapmat[g, 0, c, t*C + k_c] = K[g, c, k_c, k-1-k_h, k-1-k_w], tap t = k_h*k + k_w
    tapmat = np.empty((g_cnt, 1, c, (k * k - 1) * c), dtype=y.dtype)
    for xg, tg, yg, kern in zip(xp, tapmat[:, 0], _groups(y, c), kernels):
        xg[k - 1 :, k - 1 :] = _tl_view(yg, kern.orientation).transpose(2, 3, 1, 0)
        kflip = _tl_view(kern.weights, kern.orientation)[:, :, ::-1, ::-1]
        tg[...] = kflip.reshape(c, c, k * k)[..., 1:].transpose(0, 2, 1).reshape(tg.shape)
    flat = xp.reshape(g_cnt, -1, c, n)
    if n == 1:
        flat, tap_rows = flat[..., 0], tapmat[:, 0].transpose(0, 2, 1)
        for diag in plan:
            patch = flat.take(diag.gather, axis=1)  # (G, P, k*k-1, C)
            patch = patch.reshape(g_cnt, len(diag.gather), (k * k - 1) * c)
            flat[:, diag.target] -= patch @ tap_rows
    else:
        for diag in plan:
            patch = flat.take(diag.gather, axis=1)  # (G, P, k*k-1, C, N)
            patch = patch.reshape(g_cnt, len(diag.gather), (k * k - 1) * c, n)
            flat[:, diag.target] -= np.matmul(tapmat, patch)
    if stats is not None:
        stats.phases += len(plan)
        stats.madds += g_cnt * n * c * c * sum(diag.taps for diag in plan)
        stats.max_element_madds = max(
            stats.max_element_madds, c * max(diag.max_taps for diag in plan)
        )
    x = np.empty_like(y)
    for xg, sol, kern in zip(_groups(x, c), xp, kernels):
        _tl_view(xg, kern.orientation)[...] = sol[k - 1 :, k - 1 :].transpose(3, 2, 0, 1)
    return x


def require_workers(workers) -> None:
    """Reject a worker count that is not an integer >= 1 (numpy integers
    count; bools do not)."""
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ShapeMismatch(f"workers must be an integer >= 1, got {workers!r}")


def pcb_invert_wavefront(
    y: np.ndarray, kern: MaskedKernel, *, stats: InvertStats | None = None
) -> np.ndarray:
    """Invert pcb_forward via the anti-diagonal sweep of H+W-1 phases."""
    (y,) = _operands(ShapeMismatch, [kern], y)
    return _invert(y, [kern], stats)


def unit_invert(
    y: np.ndarray,
    unit: FincFlowUnit,
    workers: int = 1,
    stats: InvertStats | None = None,
) -> np.ndarray:
    """Invert a whole unit: its four blocks share every phase, so the
    phase count stays H+W-1 for the whole unit."""
    (y,) = _operands(IndivisibleChannels, unit.blocks, y)
    require_workers(workers)  # no effect: kept for perfbench/run.py's workers=1
    return _invert(y, unit.blocks, stats)
