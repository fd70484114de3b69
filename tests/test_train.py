import copy
import hashlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fincflow.train
from fincflow.cli import main
from fincflow.errors import (
    BadFormat,
    BadMagic,
    DimsMismatch,
    FincError,
    NonFiniteLoss,
    ShapeMismatch,
    ZeroScale,
)
from fincflow.flow import ActNorm, FlowModel, ModelConfig
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


def test_synthetic_blobs_bytes_and_peak_memory():
    # the bytes are pinned; the float64 image set is scaled and rounded in
    # place, so the peak stays near that one set (8.4 MB here), not three
    tracemalloc.start()
    try:
        images = synthetic_blobs(256, 4, 32, 5).images
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(images.tobytes()).hexdigest() == (
        "ecc08265d0472956bc94408d6638b2be8b1731bf9a8404a1e24cbb6e69112fae"
    )
    assert peak < 1.5 * images.size * 8, peak


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


@pytest.mark.parametrize("value", [0.5, -1.0, 256.0, np.nan])
def test_ften_pixels_checked_alike_by_dataset_and_reconstruct(tmp_path, value):
    """The training archive loader and the reconstruct command's image
    reader share one pixel check, whose error names the file."""
    from fincflow.cli import _read_any_image

    path = tmp_path / "bad.ften"
    write_tensor(path, np.full((1, 1, 2, 2), value, np.float32))
    want = re.escape(f"{path}: pixel values must be integers in [0, 255]")
    for load in (dataset_load, _read_any_image):
        with pytest.raises(BadFormat, match=want):
            load(str(path))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(1, 16, 16), dtype=np.uint8)
    write_image(tmp_path / "x.pgm", img)
    assert np.array_equal(read_image(tmp_path / "x.pgm"), img)
    rgb = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
    write_image(tmp_path / "x.ppm", rgb)
    assert np.array_equal(read_image(tmp_path / "x.ppm"), rgb)
    # maxval 15: samples are rescaled to 0..255
    (tmp_path / "x4.pgm").write_bytes(b"P5\n2 1\n15\n" + bytes([15, 7]))
    assert read_image(tmp_path / "x4.pgm").tolist() == [[[255, 119]]]


def test_pgm_corrupt_header(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P9\n4 4\n255\n" + b"\x00" * 16)
    with pytest.raises(BadFormat):
        read_image(tmp_path / "bad.pgm")
    (tmp_path / "short.pgm").write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 3)
    with pytest.raises(BadFormat):
        read_image(tmp_path / "short.pgm")
    (tmp_path / "over.pgm").write_bytes(b"P5\n2 1\n15\n" + bytes([15, 16]))
    with pytest.raises(BadFormat, match="maxval"):
        read_image(tmp_path / "over.pgm")


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


# ---------------------------------------------------------------------------
# batch chunks of a train step


def step_state(model, metrics):
    """Every array a train step leaves: its metrics, each gradient and
    each parameter."""
    arrays = [np.array([metrics["nll"], metrics["bpd"], metrics["grad_norm"]])]
    for _, p in model.named_params():
        arrays += [p.grad, p.value]
    return arrays


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def three_steps(n, dtype, workers):
    model = small_model(seed=30, dtype=dtype, steps=2)
    batches = synthetic_blobs(count=3 * n, seed=31).images.reshape(3, n, 4, 8, 8)
    cfg = TrainConfig(batch_size=n, seed=32, workers=workers)
    opt = Adam(model.named_params(), cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    return [step_state(model, train_step(model, batch, cfg, opt, rng)) for batch in batches]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("n", [1, 16, 17, 32, 33])
def test_train_steps_are_identical_for_any_worker_count(n, dtype):
    # the first step initialises ActNorm on the whole batch; the next two
    # run in chunks of at most 16 images
    want = three_steps(n, dtype, workers=1)
    for workers in (2, 4, 8):
        got = three_steps(n, dtype, workers)
        for step in range(3):
            assert_bit_identical(got[step], want[step])


def test_train_lanes_share_no_state_under_fast_thread_switching():
    # 129 images are 9 chunks on 8 lanes, with the interpreter switching
    # threads every 10 microseconds
    want = three_steps(129, "f32", workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = three_steps(129, "f32", workers=8)
    finally:
        sys.setswitchinterval(interval)
    for step in range(3):
        assert_bit_identical(got[step], want[step])


def test_train_config_rejects_bad_workers():
    for workers in (0, -1, 1.5, True):
        with pytest.raises(ShapeMismatch):
            TrainConfig(workers=workers)


def test_train_step_error_in_a_pool_lane_reaches_the_caller(monkeypatch):
    model = small_model(seed=33, data_init=False)
    twin = copy.deepcopy(model)
    batch = synthetic_blobs(count=32, seed=34).images
    cfg = TrainConfig(batch_size=32, seed=35, workers=2)
    opt = Adam(model.named_params(), cfg.lr)

    caller = threading.current_thread()
    forward = ActNorm.forward

    def fails_off_the_caller(self, x):
        if threading.current_thread() is not caller:
            raise ZeroScale("raised in a pool lane")
        return forward(self, x)

    monkeypatch.setattr(ActNorm, "forward", fails_off_the_caller)
    with pytest.raises(ZeroScale, match="raised in a pool lane"):
        train_step(model, batch, cfg, opt, np.random.default_rng(36))
    monkeypatch.undo()
    # the failed step moved no parameter, and the next one runs as on a
    # model that never failed
    got = step_state(model, train_step(model, batch, cfg, opt, np.random.default_rng(37)))
    twin_opt = Adam(twin.named_params(), cfg.lr)
    want = step_state(twin, train_step(twin, batch, cfg, twin_opt, np.random.default_rng(37)))
    assert_bit_identical(got, want)


def test_data_init_step_runs_the_whole_batch_as_one_chunk():
    # 33 images would be three chunks, but ActNorm's data-dependent init
    # must see them all: the init and the gradients match one unchunked
    # forward and backward
    model = small_model(seed=38)
    twin = copy.deepcopy(model)
    x = dequantize(synthetic_blobs(count=33, seed=39).images, np.random.default_rng(40))
    logdet, logp = model.backward(x, workers=2)
    caches = []
    latents, twin_logdet, twin_logp = twin._forward(x, caches)
    twin_grads = {q: np.zeros_like(q.value) for _, q in twin.named_params()}
    twin._backward(caches, latents[-1], -1.0 / len(x), twin_grads)
    assert (logdet, logp) == (twin_logdet, twin_logp)
    for (name, p), (_, q) in zip(model.named_params(), twin.named_params()):
        assert_bit_identical([p.value, p.grad], [q.value, twin_grads[q]])
    assert not any(isinstance(layer, ActNorm) and layer.pending_init
                   for _, layer in model.layers)


def test_param_grad_is_none_until_backward_sets_it(tmp_path):
    model = small_model(seed=41)
    assert all(p.grad is None for _, p in model.named_params())
    x = dequantize(synthetic_blobs(count=4, seed=42).images, np.random.default_rng(43))
    model.forward(x)  # the data-dependent init
    checkpoint_save(model, tmp_path / "model.ckpt")
    loaded = checkpoint_load(tmp_path / "model.ckpt")
    for m in (model, loaded):
        latents, _, _ = m.forward(x)
        m.inverse(latents)
        m.sample(2, 0.7, np.random.default_rng(44))
        assert all(p.grad is None for _, p in m.named_params())
        m.backward(x)
        first = [p.grad for _, p in m.named_params()]
        for (_, p), g in zip(m.named_params(), first):
            assert g.shape == p.value.shape and g.dtype == p.value.dtype
        # set, not accumulated: the same batch gives the same gradients
        m.backward(x)
        assert_bit_identical([p.grad for _, p in m.named_params()], first)


def test_one_lane_train_step_never_starts_the_pool():
    code = """if True:
        import sys
        import numpy as np
        import fincflow.flow
        from fincflow.train import Adam, TrainConfig, synthetic_blobs, train_step
        model = fincflow.flow.FlowModel(fincflow.flow.ModelConfig(4, 8, 8, 2, 1, hidden=8))
        cfg = TrainConfig(batch_size=33)
        opt = Adam(model.named_params(), cfg.lr)
        rng = np.random.default_rng(0)
        for _ in range(2):
            train_step(model, synthetic_blobs(33).images, cfg, opt, rng)
        assert fincflow.flow._pool is None
        assert "concurrent.futures" not in sys.modules
    """
    src = str(Path(fincflow.train.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_cli_train_writes_the_same_files_at_any_worker_count(tmp_path):
    # 80 images in batches of 40: the second step runs three chunks
    files = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        argv = ["train", "--size", "8", "--count", "80", "--batch-size", "40",
                "--hidden", "8", "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        files.append([(out / name).read_bytes() for name in ("metrics.csv", "model.ckpt")])
    assert files[0] == files[1]
    assert len(files[0][0].splitlines()) == 3


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


def arange_model(dtype, levels=1, steps=1):
    """Model on 4x4x4 inputs whose every parameter is an arange ramp."""
    cfg = ModelConfig(4, 4, 4, levels=levels, steps=steps, kernel_size=3, hidden=4, dtype=dtype)
    model = FlowModel(cfg, identity_init=True, data_init=False)
    for i, (_, p) in enumerate(model.named_params()):
        ramp = (np.arange(p.value.size) + i) / 8 - 1
        p.value = ramp.reshape(p.value.shape).astype(model.dtype)
    return model


# sha256 and length of arange_model's checkpoint per (dtype, levels, steps):
# files already written must keep loading, so these bytes never change.  The
# L=2, K=2 model pins the parameter order across steps, levels and a split.
CKPT_GOLDEN = {
    ("f32", 1, 1): ("48c75042ae0b562d774476533bb2276b89b0e77a34858a41a9d7dedc8291ce35", 7995),
    ("f64", 1, 1): ("be2f70b51f96eb669d75df54f644c9f5048b8b8c4a902bd34e4c1848e7d69aca", 15195),
    ("f32", 2, 2): ("8318a87bbf62072f172cf696b155f066a134fba60534a51477c7d56d4679f1c7", 63390),
    ("f64", 2, 2): ("f852cd9233a059b0766c866355c1b592680942f374adc38639c638261d3af901", 123870),
}


@pytest.mark.parametrize(
    "dtype, levels, steps",
    [
        pytest.param(*case, id=case[0] if case[1:] == (1, 1) else "{}-L{}K{}".format(*case))
        for case in CKPT_GOLDEN
    ],
)
def test_checkpoint_golden_bytes(tmp_path, dtype, levels, steps):
    model = arange_model(dtype, levels, steps)
    path = tmp_path / "golden.ckpt"
    checkpoint_save(model, path)
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == CKPT_GOLDEN[dtype, levels, steps]
    loaded = checkpoint_load(path)
    for (name, p), (name_back, p_back) in zip(
        model.named_params(), loaded.named_params(), strict=True
    ):
        assert name == name_back and p.value.dtype == p_back.value.dtype
        assert p.value.tobytes() == p_back.value.tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_checkpoint_records_are_ften_bodies(tmp_path, dtype):
    """Each parameter record is the .ften file of the parameter padded to
    rank 4 with leading 1s, minus its magic."""
    model = arange_model(dtype)
    path = tmp_path / "m.ckpt"
    checkpoint_save(model, path)
    data = path.read_bytes()
    pos = 48
    for name, p in model.named_params():
        raw = name.encode()
        assert data[pos : pos + 4 + len(raw)] == struct.pack("<I", len(raw)) + raw
        pos += 4 + len(raw)
        ften = tmp_path / "p.ften"
        write_tensor(ften, p.value.reshape((1,) * (4 - p.value.ndim) + p.value.shape))
        body = ften.read_bytes()[8:]
        assert data[pos : pos + len(body)] == body, name
        pos += len(body)
    assert pos == len(data)


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


def test_checkpoint_record_dims_must_match_parameter(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "dims.ckpt")
    pos = 48  # first record
    while True:
        (name_len,) = struct.unpack_from("<I", data, pos)
        at = pos + 4 + name_len + 5  # the record's four u32 dims
        if data[pos + 4 : pos + 4 + name_len] == b"level0.step0.inv1x1.w":
            break
        pos = at + 16 + 4 * math.prod(struct.unpack_from("<4I", data, at))  # f32 payload
    assert struct.unpack_from("<4I", data, at) == (1, 1, 16, 16)
    # same element count, other shapes
    for dims in ((1, 1, 4, 64), (1, 16, 16, 1), (16, 16, 1, 1)):
        path.write_bytes(data[:at] + struct.pack("<4I", *dims) + data[at + 16 :])
        with pytest.raises(DimsMismatch, match="inv1x1"):
            checkpoint_load(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "tail.ckpt")
    path.write_bytes(data + b"\x00")
    with pytest.raises(BadFormat, match="trailing"):
        checkpoint_load(path)


# header fields: levels, steps, channels, height, width, kernel_size, hidden
_HEADER_FIELD = {"steps": 16, "height": 24, "kernel_size": 32, "hidden": 36}


def _patch_header(data, field, value):
    at = _HEADER_FIELD[field]
    return data[:at] + struct.pack("<I", value) + data[at + 4 :]


def test_checkpoint_header_invalid_config(tmp_path):
    path, data = _saved_checkpoint(tmp_path, "cfg.ckpt")
    for field in ("kernel_size", "height"):
        path.write_bytes(_patch_header(data, field, 0))
        with pytest.raises(FincError, match=field):
            checkpoint_load(path)


def test_checkpoint_header_bounded_before_model_is_built(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("FlowModel built from an unbounded header")

    monkeypatch.setattr(fincflow.train, "FlowModel", refuse)
    path, data = _saved_checkpoint(tmp_path, "huge.ckpt")
    for field, value in (("hidden", 2**20), ("kernel_size", 2**16), ("steps", 2**31)):
        path.write_bytes(_patch_header(data, field, value))
        with pytest.raises(BadFormat, match="payload bytes"):
            checkpoint_load(path)
