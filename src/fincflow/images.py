"""Binary PGM (P5) and PPM (P6) image reading and writing, 8-bit only."""

from __future__ import annotations

import numpy as np

from .errors import BadFormat


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited token, skipping '#' comment lines."""
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise BadFormat("unexpected end of header")
    return data[start:pos], pos


def read_image(path) -> np.ndarray:
    """Read a P5/P6 file into a (C, H, W) uint8 array (C = 1 or 3).

    Samples are rescaled from 0..maxval to 0..255."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, pos = _read_token(data, 0)
        if magic == b"P5":
            channels = 1
        elif magic == b"P6":
            channels = 3
        else:
            raise BadFormat(f"{path}: unknown magic {magic!r}")
        width_tok, pos = _read_token(data, pos)
        height_tok, pos = _read_token(data, pos)
        maxval_tok, pos = _read_token(data, pos)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except (BadFormat, ValueError) as exc:
        raise BadFormat(f"{path}: bad header ({exc})") from exc
    if not (0 < maxval <= 255):
        raise BadFormat(f"{path}: only 8-bit images supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise BadFormat(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    count = width * height * channels
    payload = data[pos : pos + count]
    if len(payload) != count:
        raise BadFormat(f"{path}: expected {count} pixel bytes, found {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if arr.max() > maxval:
        raise BadFormat(f"{path}: sample value {arr.max()} above maxval {maxval}")
    if maxval != 255:  # rescale to 0..255, rounding half up
        arr = ((arr.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)
    return np.ascontiguousarray(arr.transpose(2, 0, 1))


def pixels_u8(arr: np.ndarray, path) -> np.ndarray:
    """``arr``, read from ``path``, as uint8 pixels; every value must be an
    integer in [0, 255]."""
    if np.any(arr < 0) or np.any(arr > 255) or np.any(arr != np.round(arr)):
        raise BadFormat(f"{path}: pixel values must be integers in [0, 255]")
    return arr.astype(np.uint8)


def write_image(path, img: np.ndarray) -> None:
    """Write a (C, H, W) uint8 array; C=1 becomes P5, C=3 becomes P6."""
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 3:
        raise BadFormat(f"image must be (C,H,W) uint8, got {img.dtype} {img.shape}")
    c, h, w = img.shape
    if c == 1:
        magic = b"P5"
    elif c == 3:
        magic = b"P6"
    else:
        raise BadFormat(f"PGM/PPM supports 1 or 3 channels, got {c}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(img.transpose(1, 2, 0)).tobytes())
