import io
import math
import struct

import numpy as np
import pytest

from fincflow.errors import BadFormat, BadMagic, DimsMismatch, NonFiniteLoss
from fincflow.flow import FlowModel, ModelConfig
from fincflow.images import read_image, write_image
from fincflow.invconv import anchor_position
from fincflow.tensor import write_tensor
from fincflow.train import (
    Adam,
    TrainConfig,
    adam_update,
    bpd,
    checkpoint_load,
    checkpoint_save,
    dataset_load,
    dequantize,
    nll,
    synthetic_blobs,
    train,
    train_step,
)


def small_model(seed=0, c=4, hw=8, dtype="f32", levels=2, steps=1, data_init=True):
    cfg = ModelConfig(c, hw, hw, levels, steps, hidden=8, dtype=dtype)
    return FlowModel(cfg, np.random.default_rng(seed), data_init=data_init)


# ---------------------------------------------------------------------------
# dequantize / nll / bpd


def test_dequantize_range_and_determinism():
    x = np.random.default_rng(0).integers(0, 256, size=(4, 2, 5, 5), dtype=np.uint8)
    a = dequantize(x, np.random.default_rng(7))
    b = dequantize(x, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert a.dtype == np.float32
    assert (a >= 0).all() and (a < 1).all()
    zero = dequantize(np.zeros((1, 1, 1, 1), np.uint8), FixedZeroRng())
    assert zero[0, 0, 0, 0] == 0.0


class FixedZeroRng:
    def random(self, shape):
        return np.zeros(shape)


def test_nll_identity_model_standard_normal():
    # z = 0 through an identity-acting model on a 1x1x1 image: 0.5*log(2*pi)
    value = nll(logp_total=-0.5 * math.log(2 * math.pi), logdet_total=0.0, n=1,
                dims=(1, 1, 1), bins=1)
    assert value == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-12)


def test_nll_decreases_toward_prior_mean():
    from fincflow.flow import gaussian_logp

    dims = (1, 2, 2)
    near = float(gaussian_logp(np.full(4, 0.1), 0.0, 0.0).sum())
    far = float(gaussian_logp(np.full(4, 2.0), 0.0, 0.0).sum())
    assert nll(near, 0.0, 1, dims, bins=1) < nll(far, 0.0, 1, dims, bins=1)


def test_nll_nonfinite_raises():
    with pytest.raises(NonFiniteLoss):
        nll(float("nan"), 0.0, 1, (1, 1, 1))


def test_bpd_unit_conversion():
    dims = (4, 8, 8)
    d = 4 * 8 * 8
    assert bpd(d * math.log(2.0), dims) == pytest.approx(1.0, rel=1e-12)
    assert bpd(0.0, dims) == 0.0
    value = 123.456
    assert bpd(value, dims) * d / (1.0 / math.log(2.0)) == pytest.approx(value, rel=1e-12)


def test_nll_includes_dequant_scale_term():
    dims = (2, 4, 4)
    d = 2 * 4 * 4
    base = nll(0.0, 0.0, 1, dims, bins=1)
    scaled = nll(0.0, 0.0, 1, dims, bins=256)
    assert scaled - base == pytest.approx(d * math.log(256.0), rel=1e-12)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_no_change():
    value = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    adam_update(value, np.zeros(2), m, v, t=1, lr=0.1)
    assert np.array_equal(value, np.array([1.0, -2.0]))


def test_adam_first_step_magnitude_is_lr():
    value = np.zeros(3)
    m = np.zeros(3)
    v = np.zeros(3)
    g = np.array([10.0, -0.3, 2.0])
    adam_update(value, g, m, v, t=1, lr=1e-3)
    # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
    assert np.allclose(np.abs(value), 1e-3, rtol=1e-6)
    assert np.array_equal(np.sign(value), -np.sign(g))


def test_adam_trajectories_deterministic():
    runs = []
    for _ in range(2):
        model = small_model(seed=3, data_init=False)
        opt = Adam(model.named_params(), lr=1e-3)
        rng = np.random.default_rng(11)
        for _ in range(3):
            for _, p in opt.params:
                p.grad = rng.normal(size=p.value.shape).astype(p.value.dtype)
            opt.step()
        runs.append(np.concatenate([p.value.ravel() for _, p in opt.params]))
    assert np.array_equal(runs[0], runs[1])


# ---------------------------------------------------------------------------
# datasets


def test_synthetic_blobs_shape_and_determinism():
    ds = synthetic_blobs(count=16, channels=4, size=8, seed=5)
    assert ds.images.shape == (16, 4, 8, 8)
    assert ds.images.dtype == np.uint8
    again = synthetic_blobs(count=16, channels=4, size=8, seed=5)
    assert np.array_equal(ds.images, again.images)


def test_dataset_load_pgm_dir(tmp_path):
    rng = np.random.default_rng(6)
    for i in range(3):
        img = rng.integers(0, 256, size=(1, 16, 16), dtype=np.uint8)
        write_image(tmp_path / f"img{i}.pgm", img)
    ds = dataset_load(tmp_path)
    assert ds.images.shape == (3, 1, 16, 16)


def test_dataset_load_mixed_dims_rejected(tmp_path):
    rng = np.random.default_rng(7)
    write_image(tmp_path / "a.pgm", rng.integers(0, 256, (1, 8, 8), dtype=np.uint8))
    write_image(tmp_path / "b.pgm", rng.integers(0, 256, (1, 4, 4), dtype=np.uint8))
    with pytest.raises(DimsMismatch):
        dataset_load(tmp_path)


def test_dataset_load_ften_archive(tmp_path):
    rng = np.random.default_rng(8)
    vals = rng.integers(0, 256, size=(5, 4, 8, 8)).astype(np.float32)
    write_tensor(tmp_path / "data.ften", vals)
    ds = dataset_load(tmp_path / "data.ften")
    assert ds.images.shape == (5, 4, 8, 8)
    assert np.array_equal(ds.images, vals.astype(np.uint8))


def test_dataset_load_ften_rejects_nonintegral(tmp_path):
    write_tensor(tmp_path / "bad.ften", np.full((1, 1, 2, 2), 0.5, np.float32))
    with pytest.raises(BadFormat):
        dataset_load(tmp_path / "bad.ften")


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(1, 16, 16), dtype=np.uint8)
    write_image(tmp_path / "x.pgm", img)
    assert np.array_equal(read_image(tmp_path / "x.pgm"), img)
    rgb = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
    write_image(tmp_path / "x.ppm", rgb)
    assert np.array_equal(read_image(tmp_path / "x.ppm"), rgb)


def test_pgm_corrupt_header(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P9\n4 4\n255\n" + b"\x00" * 16)
    with pytest.raises(BadFormat):
        read_image(tmp_path / "bad.pgm")
    (tmp_path / "short.pgm").write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 3)
    with pytest.raises(BadFormat):
        read_image(tmp_path / "short.pgm")


# ---------------------------------------------------------------------------
# train step / loop


def test_train_step_preserves_anchor_mask():
    model = small_model(seed=10)
    ds = synthetic_blobs(count=32, seed=1)
    cfg = TrainConfig(batch_size=16, epochs=1, seed=2)
    opt = Adam(model.named_params(), cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(4):
        train_step(model, ds.images[:16], cfg, opt, rng)
    k = model.config.kernel_size
    for p, orientation in model.unit_params():
        ah, aw = anchor_position(orientation, k)
        c = p.value.shape[0]
        assert np.array_equal(p.value[:, :, ah, aw], np.eye(c, dtype=p.value.dtype))


def test_train_lr_zero_keeps_params():
    model = small_model(seed=11)
    ds = synthetic_blobs(count=16, seed=3)
    # lr must be > 0 by contract; exercise the lr -> 0 limit with a
    # denormal-small rate and require bit-equality after masking
    cfg = TrainConfig(lr=1e-300, batch_size=16, epochs=1, seed=4)
    before_names = {}
    model.forward(dequantize(ds.images[:16], np.random.default_rng(0), model.dtype))
    for name, p in model.named_params():
        before_names[name] = p.value.copy()
    opt = Adam(model.named_params(), cfg.lr)
    train_step(model, ds.images[:16], cfg, opt, np.random.default_rng(5))
    for name, p in model.named_params():
        assert np.array_equal(before_names[name], p.value), name


def test_train_deterministic_metrics():
    histories = []
    for _ in range(2):
        model = small_model(seed=12)
        ds = synthetic_blobs(count=32, seed=6)
        cfg = TrainConfig(batch_size=16, epochs=2, seed=7)
        histories.append(train(model, ds, cfg))
    a, b = histories
    assert len(a) == len(b) == 4
    for ma, mb in zip(a, b):
        assert ma == mb


def test_train_metrics_csv(tmp_path):
    model = small_model(seed=13)
    ds = synthetic_blobs(count=16, seed=8)
    cfg = TrainConfig(batch_size=16, epochs=2, seed=9)
    buf = io.StringIO()
    train(model, ds, cfg, metrics_out=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "epoch,step,nll,bpd,grad_norm,lr"
    assert len(lines) == 3


def test_train_progress_on_blobs():
    # 200 steps on the synthetic fixture must cut BPD by more than 0.5
    model = small_model(seed=14, c=4, hw=8, levels=2, steps=2)
    ds = synthetic_blobs(count=512, channels=4, size=8, seed=10)
    cfg = TrainConfig(batch_size=64, epochs=25, seed=11)
    history = train(model, ds, cfg)
    assert len(history) >= 200
    first = history[0]["bpd"]
    last = history[199]["bpd"]
    assert first - last >= 0.5, (first, last)


def test_nll_finite_at_init_for_in_range_data():
    cfg = ModelConfig(4, 8, 8, levels=2, steps=1, hidden=8, dtype="f32")
    model = FlowModel(cfg, identity_init=True, data_init=False)
    ds = synthetic_blobs(count=8, seed=20)
    x = dequantize(ds.images, np.random.default_rng(21), model.dtype)
    _, logdet, logp = model.forward(x)
    value = nll(logp, logdet, x.shape[0], (4, 8, 8))
    assert math.isfinite(value)


def test_dataset_model_dims_mismatch():
    model = small_model(seed=15)
    ds = synthetic_blobs(count=8, channels=4, size=16, seed=12)
    with pytest.raises(DimsMismatch):
        train(model, ds, TrainConfig(batch_size=8, epochs=1))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = small_model(seed=16, dtype="f32")
    ds = synthetic_blobs(count=16, seed=13)
    train(model, ds, TrainConfig(batch_size=16, epochs=1, seed=14))
    path = tmp_path / "model.ckpt"
    checkpoint_save(model, path)
    loaded = checkpoint_load(path)
    for (na, pa), (nb, pb) in zip(model.named_params(), loaded.named_params()):
        assert na == nb
        assert pa.value.tobytes() == pb.value.tobytes()
    x = dequantize(ds.images[:4], np.random.default_rng(15), model.dtype)
    la, lda, lpa = model.forward(x)
    lb, ldb, lpb = loaded.forward(x)
    assert lda == ldb and lpa == lpb
    for za, zb in zip(la, lb):
        assert np.array_equal(za, zb)


def test_checkpoint_resume_deterministic(tmp_path):
    model = small_model(seed=17, dtype="f32")
    ds = synthetic_blobs(count=16, seed=16)
    train(model, ds, TrainConfig(batch_size=16, epochs=1, seed=17))
    path = tmp_path / "resume.ckpt"
    checkpoint_save(model, path)
    metrics = []
    for _ in range(2):
        loaded = checkpoint_load(path)
        metrics.append(train(loaded, ds, TrainConfig(batch_size=16, epochs=2, seed=18)))
    assert metrics[0] == metrics[1]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        checkpoint_load(path)


def test_checkpoint_truncated(tmp_path):
    model = small_model(seed=18)
    path = tmp_path / "trunc.ckpt"
    checkpoint_save(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises((BadFormat, DimsMismatch)):
        checkpoint_load(path)


def _saved_checkpoint(tmp_path, name):
    path = tmp_path / name
    checkpoint_save(small_model(seed=19), path)
    return path, path.read_bytes()


def test_checkpoint_truncated_header(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "head.ckpt")
    path.write_bytes(data[:20])
    with pytest.raises(BadFormat, match="truncated"):
        checkpoint_load(path)


def test_checkpoint_record_count_must_match_model(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "count.ckpt")
    path.write_bytes(data[:44] + struct.pack("<I", 1) + data[48:])
    with pytest.raises(BadFormat, match="parameter records"):
        checkpoint_load(path)


def test_checkpoint_duplicate_record(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "dup.ckpt")
    (name_len,) = struct.unpack_from("<I", data, 48)
    dims = struct.unpack_from("<4I", data, 48 + 4 + name_len + 5)
    end = 48 + 4 + name_len + 21 + 4 * math.prod(dims)  # f32 payload
    path.write_bytes(data[:end] + data[48:end] + data[end:])
    with pytest.raises(BadFormat, match="twice"):
        checkpoint_load(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "tail.ckpt")
    path.write_bytes(data + b"\x00")
    with pytest.raises(BadFormat, match="trailing"):
        checkpoint_load(path)
