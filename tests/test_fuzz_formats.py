"""Corrupted files: any truncation, or one to three overwritten bytes, of
a valid ``.ften``, checkpoint, PGM or PPM file either raises a
``FincError`` or loads, and what loads writes and reads back
bit-identically.  Nothing else is allowed."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fincflow.errors import FincError
from fincflow.flow import FlowModel, ModelConfig
from fincflow.images import read_image, write_image
from fincflow.tensor import read_tensor, write_tensor
from fincflow.train import checkpoint_load, checkpoint_save

# Offsets and cut points are taken modulo the file length, so one strategy
# serves files of any size.
CORRUPTIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(
        st.just("overwrite"),
        st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), min_size=1, max_size=3),
    ),
)
FUZZ = settings(max_examples=200, deadline=None)


def corrupt(data: bytes, how) -> bytes:
    kind, arg = how
    if kind == "cut":
        return data[: arg % len(data)]
    buf = bytearray(data)
    for at, byte in arg:
        buf[at % len(buf)] = byte
    return bytes(buf)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(how=CORRUPTIONS, dtype=st.sampled_from([np.float32, np.float64]))
# the high bytes of three dims: their product wraps a 64-bit integer to 0
@example(how=("overwrite", [(16, 1), (20, 128), (24, 128)]), dtype=np.float32)
def test_ften_corruption_raises_or_round_trips(workdir, how, dtype):
    path = workdir / "x.ften"
    write_tensor(path, np.arange(6, dtype=dtype).reshape(1, 1, 2, 3) - 2.5)
    path.write_bytes(corrupt(path.read_bytes(), how))
    try:
        x = read_tensor(path)
    except FincError:
        return
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.dtype == x.dtype and back.tobytes() == x.tobytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(workdir):
    cfg = ModelConfig(4, 8, 8, levels=2, steps=1, hidden=8, dtype="f32")
    path = workdir / "valid.ckpt"
    checkpoint_save(FlowModel(cfg, np.random.default_rng(3), data_init=False), path)
    return path.read_bytes()


@FUZZ
@given(how=CORRUPTIONS)
def test_checkpoint_corruption_raises_or_round_trips(workdir, checkpoint_bytes, how):
    path = workdir / "x.ckpt"
    path.write_bytes(corrupt(checkpoint_bytes, how))
    try:
        model = checkpoint_load(path)
    except FincError:
        return
    checkpoint_save(model, path)
    back = checkpoint_load(path)
    pairs = zip(model.named_params(), back.named_params(), strict=True)
    for (name, p), (name_back, p_back) in pairs:
        assert name == name_back
        assert p.value.dtype == p_back.value.dtype
        assert p.value.tobytes() == p_back.value.tobytes()


@FUZZ
@given(how=CORRUPTIONS, channels=st.sampled_from([1, 3]))
def test_image_corruption_raises_or_round_trips(workdir, how, channels):
    path = workdir / "x.pnm"
    img = np.random.default_rng(channels).integers(0, 256, size=(channels, 4, 5), dtype=np.uint8)
    write_image(path, img)
    path.write_bytes(corrupt(path.read_bytes(), how))
    try:
        x = read_image(path)
    except FincError:
        return
    write_image(path, x)
    assert np.array_equal(read_image(path), x)
