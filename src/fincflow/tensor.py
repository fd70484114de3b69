"""Rank-4 (N, C, H, W) tensor helpers: oriented padding, flips, channel
split/concat, the one convolution primitive (``correlate`` and its kernel
gradient ``correlate_wgrad``) and the tensor record codec, which writes
and reads the body of a ``.ften`` file and each checkpoint parameter.

``correlate`` is BLAS matmuls over the flattened padded plane.  It picks
its layout from the channel counts of each call: im2col (one matmul per
image over a one-image patch buffer) when it widens the channels, kn2row
(one matmul per kernel tap, no patch copy) otherwise.

Tensors are plain numpy arrays in C order with dtype float32 or float64.
The element at (n, c, h, w) lives at flat offset ((n*C + c)*H + h)*W + w,
which is exactly numpy's row-major layout, so no wrapper class is needed.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    BadMagic,
    IndivisibleChannels,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedDtype,
)

MAGIC = b"FINCTEN\x00"
CODE_DTYPES = {1: np.dtype(np.float32), 2: np.dtype(np.float64)}  # stored little-endian
DTYPE_CODES = {dtype: code for code, dtype in CODE_DTYPES.items()}
RECORD_HEADER = struct.Struct("<B4x4I")  # dtype code, 4 reserved zero bytes, dims

HEIGHT_AXIS = 2
WIDTH_AXIS = 3


class Orientation(Enum):
    """Which corner of the canvas receives the zero padding.

    TL pads the top and left sides, so the image ends up in the
    bottom-right corner of the padded canvas; the other three follow the
    same naming rule.  TL is canonical: the others reduce to it by
    flipping the height axis unless the top is padded and the width axis
    unless the left is.
    """

    TL = "tl"
    TR = "tr"
    BL = "bl"
    BR = "br"

    @property
    def pads_top(self) -> bool:
        return self in (Orientation.TL, Orientation.TR)

    @property
    def pads_left(self) -> bool:
        return self in (Orientation.TL, Orientation.BL)


def require_nchw(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate that ``x`` is a rank-4 float32/float64 array."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeMismatch(f"{name} must be rank-4 (N,C,H,W), got shape {x.shape}")
    if x.dtype not in (np.float32, np.float64):
        raise ShapeMismatch(f"{name} must be float32 or float64, got {x.dtype}")
    if any(d < 1 for d in x.shape):
        raise ShapeMismatch(f"{name} has an empty dimension: {x.shape}")
    return np.ascontiguousarray(x)


def flip(x: np.ndarray, axes: tuple[str, ...] | list[str] | set[str]) -> np.ndarray:
    """Flip along a subset of {"height", "width"}. Involution per axis."""
    x = require_nchw(x)
    axset = set(axes)
    unknown = axset - {"height", "width"}
    if unknown:
        raise ShapeMismatch(f"unknown flip axes: {sorted(unknown)}")
    out = x
    if "height" in axset:
        out = np.flip(out, axis=HEIGHT_AXIS)
    if "width" in axset:
        out = np.flip(out, axis=WIDTH_AXIS)
    return np.ascontiguousarray(out)


def pad_oriented(x: np.ndarray, orientation: Orientation, k: int) -> np.ndarray:
    """Zero-pad ``x`` by k-1 on the two sides named by ``orientation``.

    Output is (N, C, H+k-1, W+k-1); the original values occupy the corner
    opposite the padded sides and every padded entry is exactly +0.0.
    """
    x = require_nchw(x)
    if k < 1:
        raise ShapeMismatch(f"kernel size must be >= 1, got {k}")
    p = k - 1
    top = p if orientation.pads_top else 0
    left = p if orientation.pads_left else 0
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + p, w + p), dtype=x.dtype)
    out[:, :, top : top + h, left : left + w] = x
    return out


def channel_split(x: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split along the channel axis into ``parts`` equal pieces."""
    x = require_nchw(x)
    c = x.shape[1]
    if parts < 1 or c % parts != 0:
        raise IndivisibleChannels(f"C={c} not divisible into {parts} parts")
    step = c // parts
    return [np.ascontiguousarray(x[:, i * step : (i + 1) * step]) for i in range(parts)]


def channel_concat(xs: list[np.ndarray]) -> np.ndarray:
    """Concatenate along the channel axis; inverse of channel_split."""
    if not xs:
        raise ShapeMismatch("cannot concat an empty list")
    xs = [require_nchw(x) for x in xs]
    first = xs[0]
    for x in xs[1:]:
        if x.shape[0] != first.shape[0] or x.shape[2:] != first.shape[2:]:
            raise ShapeMismatch(f"cannot concat {x.shape} with {first.shape}")
        if x.dtype != first.dtype:
            raise ShapeMismatch(f"cannot concat {x.dtype} with {first.dtype}")
    return np.ascontiguousarray(np.concatenate(xs, axis=1))


def correlate(xp: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Valid cross-correlation of a padded (N, C, Hp, Wp) input with an
    (O, C, k, k) kernel: y[n,o,i,j] = sum_{c,p,q} w[o,c,p,q] xp[n,c,i+p,j+q],
    shape (N, O, Hp-k+1, Wp-k+1).  It is written into ``out``, any array
    or view of that shape, if given, else into a new array; either is
    returned.

    Works on the flattened padded plane: output (i, j) is flat offset
    i*Wp+j and tap (p, q) reads p*Wp+q further on, so each tap's operand
    is a strided view of xp.  The k-1 columns between output rows are
    computed and dropped when the rows are copied out.  The layout follows
    the channel counts:

    * C < O (im2col): the k*k tap views of each image are copied, in one
      call, into one (k*k*C, span) patch matrix and contracted with the
      (O, k*k*C) kernel in one matmul, whose rows are copied out before
      the next image; the patch and product buffers hold one image.
    * C >= O (kn2row): one matmul per tap, summed into a product of the
      whole batch, which starts as the first tap's product; for k = 1
      that is the whole call, and a C-contiguous ``out`` is the product
      itself.  Each tap's (O, C) matrix is a contiguous slice of one
      (k, k, O, C) copy of the kernel, so BLAS takes it as it is; a
      strided ``w[:, :, p, q]`` is copied by numpy once per image.
    """
    n, c, hp, wp = xp.shape
    o, _, k, _ = w.shape
    h, wd = hp - k + 1, wp - k + 1
    span = (h - 1) * wp + wd  # flat offsets from pixel (0, 0) to (h-1, wd-1)
    dtype = np.result_type(xp, w)
    if out is None:
        out = np.empty((n, o, h, wd), dtype=dtype)
    flat = xp.reshape(n, c, hp * wp)
    if c < o:
        wm = w.transpose(0, 2, 3, 1).reshape(o, k * k * c)
        flat = np.ascontiguousarray(flat)  # the patch view is cut from its buffer
        sn, sc, sj = flat.strides
        # patches[b, p, q, c, j] = flat[b, c, p*Wp + q + j]
        patches = np.ndarray((n, k, k, c, span), flat.dtype, flat, 0, (sn, wp * sj, sj, sc, sj))
        y = np.empty((1, o, span), dtype=dtype)
        rows = _rows(y, h, wd, wp)[0]
        cols = np.empty((k, k, c, span), dtype=xp.dtype)
        for b in range(n):
            # one copy per image, not one per tap: threads sampling at once
            # wait on each other for the interpreter lock between small
            # numpy calls
            cols[...] = patches[b]
            # a batch-of-one product: the plain 2-D call read 1.8 MB more
            # peak RSS on the benchmark's sample workload
            np.matmul(wm, cols.reshape(1, k * k * c, span), out=y)
            out[b] = rows
        return out
    # for k = 1 (Wp = wd) the rows are the product itself
    direct = k == 1 and out.flags.c_contiguous and out.dtype == dtype
    y = out.reshape(n, o, span) if direct else np.empty((n, o, span), dtype=dtype)
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    np.matmul(wt[0, 0], flat[:, :, :span], out=y)
    for p, q in _taps(k)[1:]:
        s = p * wp + q
        y += wt[p, q] @ flat[:, :, s : s + span]
    if not direct:
        out[...] = _rows(y, h, wd, wp)
    return out


@lru_cache(maxsize=None)
def _taps(k: int) -> tuple[tuple[int, int], ...]:
    """The (p, q) taps of a k x k kernel in raster order."""
    return tuple((p, q) for p in range(k) for q in range(k))


def _rows(y: np.ndarray, h: int, wd: int, wp: int) -> np.ndarray:
    """The (N, O, h, wd) view of the output rows in a C-contiguous
    (N, O, span) product: row i is y[..., i*Wp : i*Wp+wd]."""
    strides = (*y.strides[:2], wp * y.itemsize, y.itemsize)
    return np.ndarray((*y.shape[:2], h, wd), y.dtype, y, 0, strides)


def correlate_wgrad(gy: np.ndarray, xp: np.ndarray, k: int) -> np.ndarray:
    """Kernel gradient of ``correlate``: the (O, C, k, k) array
    g[o,c,p,q] = sum_{n,i,j} gy[n,o,i,j] xp[n,c,i+p,j+q].  gy is laid out
    on the flattened plane of ``correlate`` (zeros in the k-1 gap columns;
    for k = 1 there are none, so gy is read in place) and each tap is one
    batched matmul with a strided view of xp."""
    n, o, h, wd = gy.shape
    c, hp, wp = xp.shape[1:]
    span = (h - 1) * wp + wd
    flat = xp.reshape(n, c, hp * wp)
    if k == 1:
        gyp = gy.reshape(n, o, span)
    else:
        gyp = np.empty((n, o, h, wp), dtype=gy.dtype)
        gyp[:, :, :, :wd] = gy
        gyp[:, :, :, wd:] = 0.0
        gyp = gyp.reshape(n, o, h * wp)[:, :, :span]
    g = np.empty((o, c, k, k), dtype=np.result_type(gy, xp))
    for p, q in _taps(k):
        s = p * wp + q
        g[:, :, p, q] = np.matmul(gyp, flat[:, :, s : s + span].transpose(0, 2, 1)).sum(axis=0)
    return g


def pack_record(x: np.ndarray) -> bytes:
    """The tensor record of a float32/float64 array of rank <= 4: its header
    (the shape padded with leading 1s) and its little-endian elements."""
    code = DTYPE_CODES[x.dtype]
    dims = (1,) * (4 - x.ndim) + x.shape
    wire = np.ascontiguousarray(x, CODE_DTYPES[code].newbyteorder("<"))
    return RECORD_HEADER.pack(code, *dims) + wire.tobytes()


def unpack_record(data: bytes, pos: int, where) -> tuple[np.ndarray, int]:
    """Parse the tensor record at ``data[pos:]``: a native-endian
    C-contiguous copy of its (d0, d1, d2, d3) array, and the offset just
    past it.  Errors name ``where``."""
    end = pos + RECORD_HEADER.size
    if len(data) < end:
        raise TruncatedFile(f"{where}: header truncated")
    code, *dims = RECORD_HEADER.unpack_from(data, pos)
    if code not in CODE_DTYPES:
        raise UnsupportedDtype(f"{where}: unknown dtype code {code}")
    if any(d < 1 for d in dims):
        raise TruncatedFile(f"{where}: empty dimension in header {tuple(dims)}")
    dtype = CODE_DTYPES[code]
    count = math.prod(dims)  # exact: an int64 product of four u32 dims can wrap
    payload = data[end : end + count * dtype.itemsize]
    if len(payload) != count * dtype.itemsize:
        raise TruncatedFile(
            f"{where}: expected {count} elements, found {len(payload) // dtype.itemsize}"
        )
    arr = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).reshape(dims)
    return arr.astype(dtype, order="C"), end + len(payload)


def write_tensor(path, x: np.ndarray) -> None:
    """Write ``x`` to ``path`` in the .ften format (lossless): the magic,
    then its tensor record."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + pack_record(require_nchw(x)))


def read_tensor(path) -> np.ndarray:
    """Read a .ften file back into a contiguous (N,C,H,W) array; bytes after
    the record are ignored."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: not a .ften file")
    return unpack_record(data, len(MAGIC), path)[0]
