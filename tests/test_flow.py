import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fincflow import flow
from fincflow.errors import (
    MissingCache,
    OddChannels,
    OddSpatialDims,
    ShapeMismatch,
    SingularWeight,
    ZeroScale,
)
from fincflow.flow import (
    ActNorm,
    Conv2d,
    Coupling,
    FlowModel,
    Inv1x1,
    ModelConfig,
    Split,
    Squeeze,
    gaussian_logp,
)


def toy_model(
    seed=0, dtype="f64", levels=1, steps=2, c=4, hw=4, hidden=8, perturb=0.05, width=None
):
    """Small f64 model with every parameter nudged away from its init so
    that log-dets and gradients are generic.  ``width`` defaults to ``hw``."""
    width = hw if width is None else width
    cfg = ModelConfig(c, hw, width, levels, steps, kernel_size=3, hidden=hidden, dtype=dtype)
    rng = np.random.default_rng(seed)
    model = FlowModel(cfg, rng, data_init=False)
    if perturb:
        from fincflow.invconv import apply_anchor_mask, MaskedKernel, mask_anchor_gradient

        for name, p in model.named_params():
            p.value = p.value + perturb * rng.standard_normal(p.value.shape).astype(p.value.dtype)
        for p, orientation in model.unit_params():
            kern = MaskedKernel(p.value, orientation)
            p.value = apply_anchor_mask(kern).weights
    return model


def flatten_latents(latents):
    return np.concatenate([z.ravel() for z in latents])


# ---------------------------------------------------------------------------
# actnorm


def test_actnorm_identity():
    an = ActNorm(3, data_init=False)
    x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
    y, ld, _ = an.forward(x)
    assert np.array_equal(y, x)
    assert ld == 0.0


def test_actnorm_logdet_formula():
    an = ActNorm(1, data_init=False)
    an.scale.value[:] = 2.0
    x = np.zeros((1, 1, 4, 4))
    _, ld, _ = an.forward(x)
    assert ld == pytest.approx(16.0 * math.log(2.0), rel=1e-12)


def test_actnorm_round_trip_f32():
    an = ActNorm(4, dtype=np.float32, data_init=False)
    rng = np.random.default_rng(1)
    an.scale.value[:] = rng.uniform(0.5, 2.0, 4).astype(np.float32)
    an.bias.value[:] = rng.normal(size=4).astype(np.float32)
    x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
    y, _, _ = an.forward(x)
    assert np.max(np.abs(an.inverse(y) - x)) < 1e-6


def test_actnorm_data_init_normalizes():
    an = ActNorm(2, data_init=True)
    rng = np.random.default_rng(2)
    x = rng.normal(loc=3.0, scale=2.5, size=(8, 2, 8, 8))
    y, _, _ = an.forward(x)
    assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-6
    assert np.abs(y.std(axis=(0, 2, 3)) - 1.0).max() < 1e-4
    assert not an.pending_init


def test_actnorm_zero_scale_raises():
    an = ActNorm(2, data_init=False)
    an.scale.value[0] = 0.0
    with pytest.raises(ZeroScale):
        an.forward(np.zeros((1, 2, 2, 2)))


def test_actnorm_logdet_grad_matches_formula():
    # d(logdet per sample)/d scale_c == H*W / scale_c
    an = ActNorm(3, data_init=False)
    an.scale.value[:] = np.array([0.5, 1.5, 2.0])
    x = np.random.default_rng(3).normal(size=(1, 3, 4, 5))
    _, _, cache = an.forward(x)
    an.backward(np.zeros_like(x), 1.0, cache)
    assert np.allclose(an.scale.grad, 4 * 5 / an.scale.value, rtol=1e-12)


def test_backward_without_cache_raises():
    an = ActNorm(2, data_init=False)
    with pytest.raises(MissingCache):
        an.backward(np.zeros((1, 2, 2, 2)), -1.0, None)


# ---------------------------------------------------------------------------
# 1x1


def test_inv1x1_identity():
    layer = Inv1x1(3, identity_init=True)
    x = np.random.default_rng(4).normal(size=(2, 3, 4, 4))
    y, ld, _ = layer.forward(x)
    assert np.array_equal(y, x)
    assert ld == 0.0


def test_inv1x1_rotation_logdet_zero():
    theta = 0.3
    layer = Inv1x1(2, identity_init=True)
    layer.w.value = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    x = np.random.default_rng(5).normal(size=(1, 2, 3, 3))
    y, ld, _ = layer.forward(x)
    assert abs(ld) < 1e-12
    # inverse equals application of the transpose for orthogonal weight
    xt = np.einsum("co,nchw->nohw", layer.w.value, y)
    assert np.max(np.abs(layer.inverse(y) - xt)) < 1e-12
    # f64, a general (non-orthogonal) weight: inverse agrees with a solve
    rng = np.random.default_rng(5)
    layer = Inv1x1(16, identity_init=True)
    layer.w.value = np.eye(16) + 0.075 * rng.normal(size=(16, 16))
    y = rng.normal(size=(3, 16, 4, 5))
    flat = y.transpose(1, 0, 2, 3).reshape(16, -1)
    ref = np.linalg.solve(layer.w.value, flat).reshape(16, 3, 4, 5).transpose(1, 0, 2, 3)
    assert np.max(np.abs(layer.inverse(y) - ref)) < 1e-12


def test_inv1x1_qr_round_trip_f32():
    rng = np.random.default_rng(6)
    # the benchmark's channel counts, 16 and 32, at batch 8
    for c, n in ((8, 2), (16, 8), (32, 8)):
        layer = Inv1x1(c, rng, np.float32)
        x = rng.normal(size=(n, c, 4, 4)).astype(np.float32)
        y, _, _ = layer.forward(x)
        assert np.max(np.abs(layer.inverse(y) - x)) < 1e-5


def test_inv1x1_singular_raises():
    layer = Inv1x1(2, identity_init=True)
    layer.w.value = np.zeros((2, 2))
    with pytest.raises(SingularWeight):
        layer.forward(np.zeros((1, 2, 2, 2)))


# ---------------------------------------------------------------------------
# coupling


def test_coupling_zero_init_is_identity():
    rng = np.random.default_rng(7)
    cp = Coupling(4, hidden=8, rng=rng)
    x = rng.normal(size=(2, 4, 4, 4))
    y, ld, _ = cp.forward(x)
    assert np.array_equal(y, x)
    assert ld == 0.0


def test_coupling_round_trip_random_net():
    rng = np.random.default_rng(8)
    cp = Coupling(4, hidden=8, rng=rng, dtype=np.float32)
    cp.net.conv3.w.value = rng.normal(scale=0.1, size=cp.net.conv3.w.value.shape).astype(
        np.float32
    )
    x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
    y, _, _ = cp.forward(x)
    assert np.max(np.abs(cp.inverse(y) - x)) < 1e-5


def test_coupling_odd_channels():
    with pytest.raises(OddChannels):
        Coupling(3, hidden=8, rng=np.random.default_rng(0))


def test_coupling_logdet_matches_numeric_jacobian():
    rng = np.random.default_rng(9)
    cp = Coupling(4, hidden=8, rng=rng)
    cp.net.conv3.w.value = rng.normal(scale=0.1, size=cp.net.conv3.w.value.shape)
    x = rng.normal(size=(1, 4, 4, 4))
    _, ld, _ = cp.forward(x)
    dim = x.size
    jac = np.zeros((dim, dim))
    eps = 1e-6
    flat = x.ravel()
    for i in range(dim):
        xp = flat.copy()
        xp[i] += eps
        xm = flat.copy()
        xm[i] -= eps
        yp, _, _ = cp.forward(xp.reshape(x.shape))
        ym, _, _ = cp.forward(xm.reshape(x.shape))
        jac[:, i] = (yp - ym).ravel() / (2 * eps)
    _, want = np.linalg.slogdet(jac)
    assert ld == pytest.approx(want, abs=1e-3)


# ---------------------------------------------------------------------------
# squeeze / split


def test_squeeze_shape_and_round_trip():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 1, 4, 4))
    y = Squeeze.forward(x)
    assert y.shape == (1, 4, 2, 2)
    assert np.array_equal(Squeeze.inverse(y), x)
    x2 = rng.normal(size=(3, 5, 6, 8)).astype(np.float32)
    assert np.array_equal(Squeeze.inverse(Squeeze.forward(x2)), x2)


def test_squeeze_odd_dims():
    with pytest.raises(OddSpatialDims):
        Squeeze.forward(np.zeros((1, 3, 5, 4)))


def test_split_zero_init_standard_normal_logp():
    rng = np.random.default_rng(11)
    sp = Split(4, rng)
    x = np.zeros((1, 4, 2, 2))
    _, z, logp, _ = sp.forward(x)
    # z = 0 under the standard normal: 8 elements of -0.5*log(2*pi)
    assert logp == pytest.approx(8 * (-0.5 * math.log(2 * math.pi)), rel=1e-12)


def test_split_round_trip_bit_exact():
    rng = np.random.default_rng(12)
    sp = Split(6, rng)
    x = rng.normal(size=(2, 6, 4, 4))
    x1, z, _, _ = sp.forward(x)
    assert np.array_equal(sp.inverse(x1, z), x)


def test_split_temperature_zero_is_mean():
    rng = np.random.default_rng(13)
    sp = Split(4, rng)
    x1 = rng.normal(size=(1, 2, 4, 4))
    z = sp.sample_z(x1, 0.0, None)
    mean, _ = sp._prior_params(x1)
    assert np.array_equal(z, mean)


def test_split_sample_z_takes_drawn_noise():
    sp = Split(4, np.random.default_rng(14), dtype=np.float32)
    sp.prior.w.value = np.random.default_rng(15).normal(
        scale=0.1, size=sp.prior.w.value.shape).astype(np.float32)
    x1 = np.random.default_rng(16).normal(size=(3, 2, 4, 4)).astype(np.float32)
    noise = np.random.default_rng(17).standard_normal((3, 2, 4, 4))
    # the latent sample_z made when it drew its own noise from the Generator
    mean, log_sd = sp._prior_params(x1)
    eps = np.random.default_rng(17).standard_normal(mean.shape).astype(np.float32)
    drawn = (mean + np.exp(log_sd) * 0.7 * eps).astype(np.float32)
    assert_bit_identical([sp.sample_z(x1, 0.7, noise)], [drawn])
    with pytest.raises(ShapeMismatch, match="noise shape"):
        sp.sample_z(x1, 0.7, noise[:2])


# ---------------------------------------------------------------------------
# model


def test_identity_model_logdet_zero_and_inverse():
    cfg = ModelConfig(4, 8, 8, levels=2, steps=2, hidden=8, dtype="f64")
    model = FlowModel(cfg, identity_init=True, data_init=False)
    x = np.random.default_rng(14).normal(size=(2, 4, 8, 8))
    latents, logdet, logp = model.forward(x)
    assert logdet == 0.0
    assert sum(z.size for z in latents) == x.size
    back = model.inverse(latents)
    assert np.max(np.abs(back - x)) < 1e-12


def test_model_latent_volume_various_configs():
    for levels, steps, c, hw in [(1, 1, 4, 8), (2, 4, 4, 16), (2, 1, 8, 8)]:
        cfg = ModelConfig(c, hw, hw, levels, steps, hidden=8, dtype="f64")
        model = FlowModel(cfg, np.random.default_rng(15), data_init=False)
        x = np.random.default_rng(16).normal(size=(2, c, hw, hw))
        latents, _, _ = model.forward(x)
        assert sum(z.size for z in latents) == x.size
        assert [z.shape for z in latents] == model.latent_shapes(2)


@pytest.mark.parametrize(
    "levels,steps,c,hw", [(1, 1, 4, 8), (1, 4, 4, 8), (2, 1, 4, 16), (2, 4, 8, 16)]
)
def test_model_invertibility_f32(levels, steps, c, hw):
    cfg = ModelConfig(c, hw, hw, levels, steps, hidden=8, dtype="f32")
    rng = np.random.default_rng(17)
    model = FlowModel(cfg, rng, data_init=False)
    x = rng.normal(size=(2, c, hw, hw)).astype(np.float32)
    latents, _, _ = model.forward(x)
    back = model.inverse(latents, workers=2)
    assert np.max(np.abs(back - x)) < 1e-3


def test_model_invertibility_f64_tight():
    model = toy_model(seed=18, levels=2, steps=2, c=4, hw=8)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(1, 4, 8, 8))
    latents, _, _ = model.forward(x)
    assert np.max(np.abs(model.inverse(latents) - x)) < 1e-8


def test_model_shape_checks():
    cfg = ModelConfig(4, 8, 8, levels=2, steps=1, hidden=8, dtype="f64")
    model = FlowModel(cfg, data_init=False)
    with pytest.raises(ShapeMismatch):
        model.forward(np.zeros((1, 4, 6, 8)))
    with pytest.raises(ShapeMismatch):
        ModelConfig(4, 12, 12, levels=3, steps=1).validate()
    for field in ("channels", "height", "width", "kernel_size", "hidden", "levels", "steps"):
        bad = ModelConfig(4, 8, 8, levels=2, steps=1)
        setattr(bad, field, 0)
        with pytest.raises(ShapeMismatch, match=field):
            bad.validate()
    with pytest.raises(ShapeMismatch):
        ModelConfig(4, 8, 8, levels=2**32 - 1, steps=1).validate()


def test_model_sample_seeded_and_temperature_zero():
    cfg = ModelConfig(4, 8, 8, levels=1, steps=2, hidden=8, dtype="f64")
    model = FlowModel(cfg, np.random.default_rng(20), data_init=False)
    a = model.sample(3, temperature=0.7, rng=np.random.default_rng(42))
    b = model.sample(3, temperature=0.7, rng=np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert a.shape == (3, 4, 8, 8)
    t0a = model.sample(2, temperature=0.0, rng=np.random.default_rng(1))
    t0b = model.sample(2, temperature=0.0, rng=np.random.default_rng(2))
    assert np.array_equal(t0a, t0b)


def test_model_inverse_and_sample_reject_workers_below_one():
    cfg = ModelConfig(4, 8, 8, levels=2, steps=1, hidden=8, dtype="f64")
    model = FlowModel(cfg, np.random.default_rng(20), data_init=False)
    latents, _, _ = model.forward(np.zeros((1, 4, 8, 8)))
    with pytest.raises(ShapeMismatch, match="workers"):
        model.inverse(latents, workers=0)
    rng = np.random.default_rng(0)
    drawn_before = rng.bit_generator.state
    with pytest.raises(ShapeMismatch, match="workers"):
        model.sample(1, rng=rng, workers=0)
    assert rng.bit_generator.state == drawn_before  # refused before any latent is drawn


@pytest.mark.parametrize("workers", [1.5, 2.0, "2", True, None])
def test_model_inverse_and_sample_reject_non_integer_workers(workers):
    # 40 images run in two chunks, so a float would reach the chunk pool
    model = toy_model(seed=22, dtype="f32", levels=2, hw=8)
    latents, _, _ = model.forward(np.zeros((40, 4, 8, 8), dtype=np.float32))
    for n in (10, 40):
        with pytest.raises(ShapeMismatch, match="workers"):
            model.sample(n, workers=workers)
    with pytest.raises(ShapeMismatch, match="workers"):
        model.inverse(latents, workers=workers)
    # numpy integers are worker counts
    model.sample(40, rng=np.random.default_rng(0), workers=np.int64(2))
    model.inverse(latents, workers=np.int32(2))


def test_model_config_rejects_unknown_dtype():
    with pytest.raises(ShapeMismatch, match="dtype"):
        FlowModel(ModelConfig(4, 8, 8, 1, 1, dtype="bogus"))
    with pytest.raises(ShapeMismatch, match="dtype"):
        ModelConfig(4, 8, 8, 1, 1, dtype="float64").validate()


def test_model_sample_rejects_bad_count_and_temperature_before_drawing():
    model = toy_model(seed=21, levels=2, hw=8)
    rng = np.random.default_rng(0)
    drawn_before = rng.bit_generator.state
    for n in (0, -1, 2.0, "2", True, None):
        with pytest.raises(ShapeMismatch, match="n must be an integer"):
            model.sample(n, rng=rng)
    for temperature in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ShapeMismatch, match="temperature"):
            model.sample(2, temperature, rng=rng)
    assert rng.bit_generator.state == drawn_before
    assert model.sample(np.int64(2), rng=rng).shape == (2, 4, 8, 8)


def test_model_logdet_matches_numeric_jacobian():
    model = toy_model(seed=21)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(1, 4, 4, 4))
    _, logdet, _ = model.forward(x)
    dim = x.size
    eps = 1e-4
    jac = np.zeros((dim, dim))
    flat = x.ravel()
    for i in range(dim):
        xp = flat.copy()
        xp[i] += eps
        xm = flat.copy()
        xm[i] -= eps
        lp = flatten_latents(model.forward(xp.reshape(x.shape))[0])
        lm = flatten_latents(model.forward(xm.reshape(x.shape))[0])
        jac[:, i] = (lp - lm) / (2 * eps)
    _, want = np.linalg.slogdet(jac)
    assert logdet == pytest.approx(want, abs=1e-3)


def test_totals_match_manual_layer_walk():
    # independent accumulation: re-run each layer separately and sum the
    # per-layer logs; must match the totals the model reports
    model = toy_model(seed=30, levels=2, steps=2, c=4, hw=8)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 4, 8, 8))
    latents, logdet, logp = model.forward(x)
    h = x
    ld_sum = 0.0
    lp_sum = 0.0
    for _, layer in model.layers:
        if layer is Squeeze:
            h = Squeeze.forward(h)
        elif isinstance(layer, Split):
            h, _, lp, _ = layer.forward(h)
            lp_sum += lp
        else:
            h, ld, _ = layer.forward(h)
            ld_sum += ld
    lp_sum += float(
        gaussian_logp(
            h,
            model.prior_mean.value[None, :, None, None],
            model.prior_log_sd.value[None, :, None, None],
        ).sum()
    )
    assert abs(ld_sum - logdet) <= 1e-6
    assert abs(lp_sum - logp) <= 1e-6
    assert np.array_equal(latents[-1], h)


def gradient_check(model, x, floor=1e-6, eps=1e-4):
    """Compare analytic parameter gradients of the mean NLL surrogate
    -(logp+logdet)/N against central finite differences."""
    n = x.shape[0]

    def loss():
        _, logdet, logp = model.forward(x)
        return -(logp + logdet) / n

    model.zero_grad()
    loss()
    model.backward()
    worst = 0.0
    for name, p in model.named_params():
        analytic = p.grad.copy()
        fd = np.zeros_like(analytic)
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            fd.ravel()[i] = (up - down) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
        rel = np.max(np.abs(analytic - fd) / denom)
        worst = max(worst, rel)
    return worst


def test_gradient_check_all_parameters():
    # the non-square input catches a swapped H/W in a convolution reshape
    for width in (4, 8):
        model = toy_model(seed=23, hw=4, steps=1, hidden=4, width=width)
        x = np.random.default_rng(24).normal(size=(2, 4, 4, width))
        assert gradient_check(model, x) < 1e-3, width


def test_anchor_gradient_zero_after_mask():
    from fincflow.invconv import anchor_position, mask_anchor_gradient

    model = toy_model(seed=25, hw=4, steps=1, hidden=4)
    x = np.random.default_rng(26).normal(size=(2, 4, 4, 4))
    model.zero_grad()
    model.forward(x)
    model.backward()
    for p, orientation in model.unit_params():
        masked = mask_anchor_gradient(p.grad, orientation)
        ah, aw = anchor_position(orientation, p.grad.shape[2])
        assert np.array_equal(masked[:, :, ah, aw], np.zeros_like(masked[:, :, ah, aw]))
        # and the analytic gradient at the anchor is generally nonzero pre-mask
    assert any(p.grad.any() for p, _ in model.unit_params())


def test_model_maps_only_allocation_refusals(monkeypatch):
    # MemoryError and numpy's "array is too big" become ModelTooLarge (see
    # test_cli_train_huge_hidden_is_an_error); other faults pass through
    def refuse(self, *args, **kwargs):
        raise ValueError("some other fault")

    monkeypatch.setattr(Conv2d, "__init__", refuse)
    with pytest.raises(ValueError, match="some other fault"):
        FlowModel(ModelConfig(4, 8, 8, 1, 1, hidden=8))


# ---------------------------------------------------------------------------
# padded-plane workspace of Conv2d


def in_fresh_thread(fn):
    """fn() run on a new thread, whose workspace starts empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


def forward_backward(model, x):
    """Every array a training step reads: latents, input gradient, the two
    totals and every parameter gradient."""
    model.zero_grad()
    latents, logdet, logp = model.forward(x)
    gx = model.backward()
    grads = [p.grad.copy() for _, p in model.named_params()]
    return [*latents, gx, np.array([logdet, logp]), *grads]


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_conv2d_results_never_share_memory_with_the_workspace():
    rng = np.random.default_rng(30)
    for k in (3, 5, 1):
        conv = Conv2d(3, 5, k, rng)
        x = rng.normal(size=(2, 3, 6, 7))
        y = conv.forward(x)
        gx, gw, gb = conv.backward(rng.normal(size=y.shape), x)
        planes = list(flow._WORKSPACE.planes.values())
        assert planes
        for out in (y, gx, gw, gb):
            assert not any(np.shares_memory(out, plane) for plane in planes), k


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_workspace_reuse_is_bit_identical_to_a_fresh_model(dtype):
    def build():
        return toy_model(seed=31, dtype=dtype, levels=2, hw=8, hidden=8)

    model = build()
    rng = np.random.default_rng(32)
    for n in (8, 64, 8):
        x = rng.normal(size=(n, 4, 8, 8)).astype(model.dtype)
        got = forward_backward(model, x)
        want = in_fresh_thread(lambda: forward_backward(build(), x))
        assert_bit_identical(got, want)


def test_workspace_keys_on_the_padding():
    # k=3 on 6x6 and k=5 on 4x4 both pad to 8x8 planes with different borders
    rng = np.random.default_rng(33)
    conv3, conv5 = Conv2d(2, 3, 3, rng), Conv2d(2, 3, 5, rng)
    x6, x4 = rng.normal(size=(1, 2, 6, 6)), rng.normal(size=(1, 2, 4, 4))

    def both():
        return [conv3.forward(x6), conv5.forward(x4)]

    want = [in_fresh_thread(lambda: conv3.forward(x6)),
            in_fresh_thread(lambda: conv5.forward(x4))]
    assert_bit_identical(both() + both(), want + want)


def test_workspace_borders_stay_positive_zero_after_backward():
    model = toy_model(seed=34, levels=2, hw=8, hidden=8)
    x = np.random.default_rng(35).normal(size=(4, 4, 8, 8))

    def run():
        forward_backward(model, x)
        return list(flow._WORKSPACE.planes.items())

    planes = in_fresh_thread(run)
    assert planes
    for (shape, _, p), plane in planes:
        border = np.ones(shape, dtype=bool)
        border[:, :, p:-p, p:-p] = False
        values = plane[border]
        assert np.all(values == 0.0) and not np.any(np.signbit(values)), shape
        assert plane[~border].any()


def test_workspace_holds_a_bounded_number_of_planes():
    conv = Conv2d(1, 1, 3, np.random.default_rng(36))

    def run():
        for side in range(1, 3 * flow._PLANE_SLOTS):
            conv.forward(np.ones((1, 1, side, side)))
        return list(flow._WORKSPACE.planes)

    keys = in_fresh_thread(run)
    assert len(keys) == flow._PLANE_SLOTS
    side = 3 * flow._PLANE_SLOTS - 1
    assert keys[-1][0] == (1, 1, side + 2, side + 2)


def test_two_threads_sampling_one_model_match_sequential_calls():
    model = toy_model(seed=37, dtype="f32", levels=2, hw=16, hidden=16)
    seeds = {0: (1, 2, 3), 1: (4, 5, 6)}
    want = {t: [model.sample(16, 0.7, np.random.default_rng(s)) for s in ss]
            for t, ss in seeds.items()}
    start = threading.Barrier(2)

    def draw(t):
        start.wait()
        return [model.sample(16, 0.7, np.random.default_rng(s)) for s in seeds[t]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(2) as pool:
            got = dict(zip(seeds, pool.map(draw, seeds)))
    finally:
        sys.setswitchinterval(interval)
    for t in seeds:
        assert_bit_identical(got[t], want[t])


# ---------------------------------------------------------------------------
# batch chunks on the worker pool


@pytest.mark.parametrize("temperature", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 7, 32, 33, 64, 65])
def test_sample_and_inverse_are_identical_for_any_worker_count(n, temperature):
    model = toy_model(seed=40, dtype="f32", levels=2, hw=8, hidden=8)
    samples = [model.sample(n, temperature, np.random.default_rng(41), workers=w)
               for w in (1, 2, 3, 4)]
    latent_rng = np.random.default_rng(42)
    latents = [latent_rng.standard_normal(s).astype(np.float32) for s in model.latent_shapes(n)]
    inverses = [model.inverse(latents, workers=w) for w in (1, 2, 3, 4)]
    for got in samples[1:]:
        assert_bit_identical([got], samples[:1])
    for got in inverses[1:]:
        assert_bit_identical([got], inverses[:1])
    assert samples[0].shape == inverses[0].shape == (n, 4, 8, 8)


def test_chunked_batch_matches_its_chunks_run_alone():
    # 65 images are three chunks of 22, 22 and 21, each inverted from its
    # own slice of the latents
    model = toy_model(seed=43, dtype="f32", levels=2, hw=8, hidden=8)
    latent_rng = np.random.default_rng(44)
    latents = [latent_rng.standard_normal(s).astype(np.float32) for s in model.latent_shapes(65)]
    whole = model.inverse(latents, workers=3)
    for lo, hi in ((0, 22), (22, 44), (44, 65)):
        part = model.inverse([z[lo:hi] for z in latents])
        assert_bit_identical([whole[lo:hi]], [part])


def test_pool_chunk_error_reaches_the_caller_and_the_next_call_works(monkeypatch):
    cfg = ModelConfig(4, 8, 8, levels=2, steps=1, hidden=8, dtype="f32")
    model = FlowModel(cfg, np.random.default_rng(45))  # actnorm not initialised
    with pytest.raises(ZeroScale, match="not initialized"):
        model.sample(64, workers=2)
    x = np.random.default_rng(46).random((8, 4, 8, 8)).astype(np.float32)
    model.forward(x)
    want = model.sample(64, 0.7, np.random.default_rng(47), workers=1)

    caller = threading.current_thread()
    inverse = ActNorm.inverse

    def fails_off_the_caller(self, y):
        if threading.current_thread() is not caller:
            raise ZeroScale("raised in a pool chunk")
        return inverse(self, y)

    monkeypatch.setattr(ActNorm, "inverse", fails_off_the_caller)
    with pytest.raises(ZeroScale, match="raised in a pool chunk"):
        model.sample(64, 0.7, np.random.default_rng(47), workers=2)
    monkeypatch.undo()
    got = model.sample(64, 0.7, np.random.default_rng(47), workers=2)
    assert_bit_identical([got], [want])


def test_pool_starts_at_most_one_thread_per_extra_chunk():
    model = toy_model(seed=48, dtype="f32", levels=2, hw=8, hidden=8)
    n, chunks = 65, 3
    before = threading.active_count()
    outs = [model.sample(n, 0.7, np.random.default_rng(49), workers=4) for _ in range(20)]
    assert threading.active_count() - before <= chunks - 1
    for got in outs[1:]:
        assert_bit_identical([got], outs[:1])
