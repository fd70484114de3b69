import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincflow.errors import (
    BadFormat,
    BadMagic,
    IndivisibleChannels,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedDtype,
)
from fincflow.tensor import (
    Orientation,
    channel_concat,
    channel_split,
    correlate,
    correlate_wgrad,
    flip,
    pack_record,
    pad_oriented,
    read_tensor,
    require_nchw,
    unpack_record,
    write_tensor,
)


def img(rows, dtype=np.float64):
    """Wrap a 2-D list as a (1, 1, H, W) tensor."""
    return np.asarray(rows, dtype=dtype)[None, None]


def test_layout_offset_matches_row_major():
    x = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5)
    n, c, h, w = 1, 2, 3, 4
    offset = ((n * 3 + c) * 4 + h) * 5 + w
    assert x[n, c, h, w] == x.ravel()[offset]


def test_require_nchw_rejects_bad_rank_and_dtype():
    with pytest.raises(ShapeMismatch):
        require_nchw(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        require_nchw(np.zeros((1, 1, 2, 2), dtype=np.int32))


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_pad_oriented_shapes_and_window(orientation, k):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 4, 5))
    out = pad_oriented(x, orientation, k)
    p = k - 1
    assert out.shape == (2, 3, 4 + p, 5 + p)
    top = p if orientation.pads_top else 0
    left = p if orientation.pads_left else 0
    window = out[:, :, top : top + 4, left : left + 5]
    assert np.array_equal(window, x)
    total = out.copy()
    total[:, :, top : top + 4, left : left + 5] = 0.0
    assert np.array_equal(total, np.zeros_like(total))
    # padded entries are +0.0, not -0.0
    assert not np.signbit(total).any()


def test_pad_tl_k2_example():
    x = img([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    out = pad_oriented(x, Orientation.TL, 2)
    expected = img([[0, 0, 0, 0], [0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]])
    assert np.array_equal(out, expected)


def test_pad_br_k2_example():
    x = img([[1, 2], [3, 4]])
    out = pad_oriented(x, Orientation.BR, 2)
    expected = img([[1, 2, 0], [3, 4, 0], [0, 0, 0]])
    assert np.array_equal(out, expected)


def test_pad_k1_is_identity():
    x = np.random.default_rng(0).normal(size=(1, 2, 3, 3))
    for o in Orientation:
        assert np.array_equal(pad_oriented(x, o, 1), x)


def test_flip_width_example():
    x = img([[1, 2], [3, 4]])
    assert np.array_equal(flip(x, ("width",)), img([[2, 1], [4, 3]]))
    assert np.array_equal(flip(x, ()), x)


def test_flip_involution():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2, 5, 3)).astype(np.float32)
    both = ("height", "width")
    assert np.array_equal(flip(flip(x, both), both), x)
    assert np.array_equal(flip(flip(x, ("height",)), ("height",)), x)


def flip_axes(orientation):
    """Axes along which to flip to turn this orientation into TL."""
    return tuple(name for name, padded in (("height", orientation.pads_top),
                                           ("width", orientation.pads_left)) if not padded)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_pad_reduces_to_tl_by_flips(orientation):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 4, 6))
    axes = flip_axes(orientation)
    direct = pad_oriented(x, orientation, 3)
    via_tl = flip(pad_oriented(flip(x, axes), Orientation.TL, 3), axes)
    assert np.array_equal(direct, via_tl)


def test_channel_split_concat_round_trip():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 8, 3, 3))
    parts = channel_split(x, 4)
    assert [p.shape for p in parts] == [(2, 2, 3, 3)] * 4
    assert np.array_equal(channel_concat(parts), x)
    assert len(channel_split(x, 1)) == 1
    assert np.array_equal(channel_split(x, 1)[0], x)


def test_channel_split_indivisible():
    x = np.zeros((1, 6, 2, 2))
    with pytest.raises(IndivisibleChannels):
        channel_split(x, 4)


def test_channel_concat_shape_mismatch():
    a = np.zeros((1, 1, 2, 2))
    b = np.zeros((1, 1, 3, 2))
    with pytest.raises(ShapeMismatch):
        channel_concat([a, b])
    assert channel_concat([a, a]).shape == (1, 2, 2, 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c, o", [(3, 8), (5, 5), (8, 3)])
def test_correlate_matches_per_tap_oracle(c, o, k, dtype):
    n, h, w = 5, 6, 9
    rng = np.random.default_rng(k * 100 + c * 10 + o)
    xp = rng.normal(size=(n, c, h + k - 1, w + k - 1)).astype(dtype)
    wt = rng.normal(size=(o, c, k, k)).astype(dtype)
    gy = rng.normal(size=(n, o, h, w)).astype(dtype)
    want_y = np.zeros((n, o, h, w))
    want_g = np.zeros((o, c, k, k))
    for p, q in np.ndindex(k, k):
        tap = xp[:, :, p : p + h, q : q + w].astype(np.float64)
        want_y += np.einsum("oc,nchw->nohw", wt[:, :, p, q].astype(np.float64), tap)
        want_g[:, :, p, q] = np.einsum("nohw,nchw->oc", gy.astype(np.float64), tap)
    rel = 1e-12 if dtype == np.float64 else 1e-5
    y, g = correlate(xp, wt), correlate_wgrad(gy, xp, k)
    assert y.dtype == dtype and g.dtype == dtype
    assert y.shape == want_y.shape and g.shape == want_g.shape
    assert np.max(np.abs(y - want_y)) <= rel * np.max(np.abs(want_y))
    assert np.max(np.abs(g - want_g)) <= rel * np.max(np.abs(want_g))
    # each image's output is the one it gets alone, whatever the batch
    for i in range(n):
        assert np.array_equal(y[i : i + 1], correlate(xp[i : i + 1], wt)), i


def strided_tap_correlate(xp, w):
    """kn2row as one matmul per tap with the strided (O, C) slice
    w[:, :, p, q], summed on the flattened padded plane."""
    n, c, hp, wp = xp.shape
    o, _, k, _ = w.shape
    h, wd = hp - k + 1, wp - k + 1
    span = (h - 1) * wp + wd
    flat = xp.reshape(n, c, hp * wp)
    y = np.matmul(w[:, :, 0, 0], flat[:, :, :span])
    for p, q in list(np.ndindex(k, k))[1:]:
        s = p * wp + q
        y += w[:, :, p, q] @ flat[:, :, s : s + span]
    rows = np.zeros((n, o, h * wp), dtype=y.dtype)
    rows[:, :, :span] = y
    return rows.reshape(n, o, h, wp)[:, :, :, :wd]


def gap_layout_wgrad(gy, xp, k):
    """correlate_wgrad with gy copied into a zero-filled plane of Wp columns."""
    n, o, h, wd = gy.shape
    c, hp, wp = xp.shape[1:]
    span = (h - 1) * wp + wd
    flat = xp.reshape(n, c, hp * wp)
    gyp = np.zeros((n, o, h, wp), dtype=gy.dtype)
    gyp[:, :, :, :wd] = gy
    gyp = gyp.reshape(n, o, h * wp)[:, :, :span]
    g = np.empty((o, c, k, k), dtype=np.result_type(gy, xp))
    for p, q in np.ndindex(k, k):
        s = p * wp + q
        g[:, :, p, q] = np.matmul(gyp, flat[:, :, s : s + span].transpose(0, 2, 1)).sum(axis=0)
    return g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 33])
@pytest.mark.parametrize("k", [1, 3])
def test_kn2row_and_wgrad_bits_match_strided_tap_loops(k, n, dtype):
    # the tap matrices come from one contiguous copy of the kernel, and a
    # k = 1 weight gradient reads gy in place: neither may move a bit
    rng = np.random.default_rng(k * 100 + n)
    c, o, h, w = 16, 8, 6, 9
    xp = rng.normal(size=(n, c, h + k - 1, w + k - 1)).astype(dtype)
    wt = rng.normal(size=(o, c, k, k)).astype(dtype)
    # the input-gradient kernel of a narrowing conv: negative strides
    flipped = rng.normal(size=(c, o, k, k)).astype(dtype).swapaxes(0, 1)[:, :, ::-1, ::-1]
    for kern in (wt, flipped):
        assert np.array_equal(correlate(xp, kern), strided_tap_correlate(xp, kern))
    # gy as a channel slice of a larger gradient, as a unit's groups pass it
    gy = rng.normal(size=(n, 2 * o, h, w)).astype(dtype)[:, o:]
    assert np.array_equal(correlate_wgrad(gy, xp, k), gap_layout_wgrad(gy, xp, k))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c, o", [(3, 8), (8, 3)])
def test_correlate_writes_its_rows_into_out(c, o, k):
    rng = np.random.default_rng(k * 10 + c)
    xp = rng.normal(size=(4, c, 5 + k - 1, 7 + k - 1)).astype(np.float32)
    wt = rng.normal(size=(o, c, k, k)).astype(np.float32)
    want = correlate(xp, wt)
    flipped = np.empty_like(want)[:, :, ::-1, ::-1]
    wider = np.full((4, o + 2, 5, 7), np.nan, dtype=np.float32)
    for out in (np.empty_like(want), flipped, wider[:, 1:-1]):
        assert correlate(xp, wt, out=out) is out
        assert np.array_equal(out, want)
    # only the view was written
    assert np.isnan(wider[:, [0, -1]]).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ften_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
    # exercise signed zero and subnormal payloads
    x[0, 0, 0, 0] = -0.0
    x[0, 0, 0, 1] = np.finfo(dtype).tiny / 4
    path = tmp_path / "t.ften"
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.dtype == x.dtype
    assert back.tobytes() == x.tobytes()


# (1, 1, 2, 3) arange - 2.5: magic, dtype code, reserved bytes, dims, elements
FTEN_GOLDEN = {
    np.float32: "46494e4354454e00" "01" "00000000"
    "01000000010000000200000003000000"
    "000020c00000c0bf000000bf0000003f0000c03f00002040",
    np.float64: "46494e4354454e00" "02" "00000000"
    "01000000010000000200000003000000"
    "00000000000004c0000000000000f8bf000000000000e0bf000000000000e03f"
    "000000000000f83f0000000000000440",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ften_golden_bytes(tmp_path, dtype):
    x = np.arange(6, dtype=dtype).reshape(1, 1, 2, 3) - 2.5
    path = tmp_path / "g.ften"
    write_tensor(path, x)
    golden = bytes.fromhex(FTEN_GOLDEN[dtype])
    assert path.read_bytes() == golden
    assert pack_record(x) == golden[8:]
    path.write_bytes(golden + b"trailing bytes are ignored")
    assert read_tensor(path).tobytes() == x.tobytes()
    arr, end = unpack_record(golden, 8, "golden")
    assert end == len(golden) and arr.tobytes() == x.tobytes()
    assert arr.dtype is np.dtype(dtype)  # numpy's own native dtype, not an equal copy


def test_tensor_record_errors_are_bad_format():
    record = pack_record(np.ones((2, 3), np.float32))
    assert record[:21] == bytes([1, 0, 0, 0, 0]) + np.array([1, 1, 2, 3], "<u4").tobytes()
    with pytest.raises(TruncatedFile, match="where: header truncated"):
        unpack_record(record[:20], 0, "where")
    with pytest.raises(TruncatedFile, match="where: expected 6 elements, found 5"):
        unpack_record(record[:-1], 0, "where")
    with pytest.raises(UnsupportedDtype, match="where: unknown dtype code 3"):
        unpack_record(b"\x03" + record[1:], 0, "where")
    for cls in (BadMagic, TruncatedFile, UnsupportedDtype):
        assert issubclass(cls, BadFormat)


def test_ften_bad_magic(tmp_path):
    path = tmp_path / "bad.ften"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(BadMagic):
        read_tensor(path)


def test_ften_truncated(tmp_path):
    x = np.ones((1, 1, 10, 10), dtype=np.float32)
    path = tmp_path / "t.ften"
    write_tensor(path, x)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 200])
    with pytest.raises(TruncatedFile):
        read_tensor(path)


def test_ften_unsupported_dtype(tmp_path):
    x = np.ones((1, 1, 2, 2), dtype=np.float32)
    path = tmp_path / "t.ften"
    write_tensor(path, x)
    data = bytearray(path.read_bytes())
    data[8] = 9
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedDtype):
        read_tensor(path)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 4),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    k=st.integers(1, 4),
    o=st.sampled_from(list(Orientation)),
    seed=st.integers(0, 2**31),
)
def test_pad_window_property(n, c, h, w, k, o, seed):
    x = np.random.default_rng(seed).normal(size=(n, c, h, w))
    out = pad_oriented(x, o, k)
    top = (k - 1) if o.pads_top else 0
    left = (k - 1) if o.pads_left else 0
    assert np.array_equal(out[:, :, top : top + h, left : left + w], x)
    outside = out.copy()
    outside[:, :, top : top + h, left : left + w] = 0.0
    assert not outside.any()
