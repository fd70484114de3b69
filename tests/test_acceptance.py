"""Acceptance gate: one test per primary criterion, each at its stated
tolerance, printing one pass/fail line (run with ``pytest -v -s``)."""

import math
import time

import numpy as np

from fincflow.bench import BenchReport, bench_invert, measure_scaling
from fincflow.flow import CHUNK_IMAGES, FlowModel, ModelConfig, Squeeze
from fincflow.invconv import (
    InvertStats,
    MaskedKernel,
    anchor_position,
    apply_anchor_mask,
    build_conv_matrix,
    canonical_permutation,
    dense_invert,
    pcb_forward,
    pcb_invert_reference,
    pcb_invert_wavefront,
    random_masked_kernel,
    random_unit,
    unit_forward,
)
from fincflow.tensor import Orientation
from fincflow.train import Adam, TrainConfig, iter_batches, synthetic_blobs, train_step

ORIENTATION_CYCLE = list(Orientation)


def report(name):
    print(f"[ACCEPTANCE] {name}: PASS")


def test_exact_inverse_round_trip():
    """max |invert(forward(x)) - x| <= 1e-4 (f32) and 1e-9 (f64) across
    H=W in {4,8,16,32}, C in {1,2,4,8}, k in {2,3,5}, 20 seeds each;
    total runtime <= 60 s."""
    start = time.time()
    worst = {np.float32: 0.0, np.float64: 0.0}
    limit = {np.float32: 1e-4, np.float64: 1e-9}
    for n in (4, 8, 16, 32):
        for c in (1, 2, 4, 8):
            for k in (2, 3, 5):
                for seed in range(20):
                    rng = np.random.default_rng(
                        np.random.SeedSequence([n, c, k, seed])
                    )
                    orientation = ORIENTATION_CYCLE[seed % 4]
                    for dtype in (np.float32, np.float64):
                        pcb = random_masked_kernel(c, k, orientation, rng, dtype)
                        x = rng.normal(size=(1, c, n, n)).astype(dtype)
                        back = pcb_invert_wavefront(pcb_forward(x, pcb), pcb)
                        err = float(np.max(np.abs(back - x)))
                        worst[dtype] = max(worst[dtype], err)
                        assert err <= limit[dtype], (n, c, k, seed, dtype, err)
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"round-trip sweep took {elapsed:.1f}s"
    report(
        "exact-inverse round trip "
        f"(worst f32 {worst[np.float32]:.2e}, f64 {worst[np.float64]:.2e}, {elapsed:.1f}s)"
    )


def test_triple_oracle_agreement():
    """wavefront vs raster back-substitution vs dense triangular solve,
    pairwise <= 1e-9 (f64), instances with H*W*C <= 4096; <= 120 s."""
    start = time.time()
    instances = [
        (4, 1, 2), (4, 4, 3), (4, 8, 5),
        (8, 1, 2), (8, 4, 3), (8, 8, 5),
        (16, 2, 2), (16, 4, 3), (16, 16, 5),
        (32, 4, 2), (32, 4, 3), (32, 4, 5),
    ]
    worst = 0.0
    for idx, (n, c, k) in enumerate(instances):
        assert n * n * c <= 4096
        rng = np.random.default_rng(idx)
        orientation = ORIENTATION_CYCLE[idx % 4]
        pcb = random_masked_kernel(c, k, orientation, rng)
        y = rng.normal(size=(1, c, n, n))
        wf = pcb_invert_wavefront(y, pcb)
        ref = pcb_invert_reference(y, pcb)
        dns = dense_invert(y, pcb)
        err = max(
            float(np.max(np.abs(wf - ref))),
            float(np.max(np.abs(wf - dns))),
            float(np.max(np.abs(ref - dns))),
        )
        worst = max(worst, err)
        assert err <= 1e-9, (n, c, k, err)
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"triple-oracle suite took {elapsed:.1f}s"
    report(f"triple-oracle agreement (worst {worst:.2e}, {elapsed:.1f}s)")


def test_structural_claims():
    """Exact assertions: strict triangularity with unit diagonal, det == 1,
    unit and squeeze logdet == 0.0, barrier phases == H+W-1, per-element
    multiply-adds <= k^2*C."""
    rng = np.random.default_rng(7)
    for orientation in Orientation:
        c, h, w, k = 3, 6, 5, 3
        pcb = random_masked_kernel(c, k, orientation, rng)
        m = build_conv_matrix(pcb, h, w)
        perm = canonical_permutation(orientation, h, w, c)
        mc = m[np.ix_(perm, perm)]
        assert np.array_equal(np.triu(mc, 1), np.zeros_like(mc))
        assert np.array_equal(np.diag(mc), np.ones(h * w * c))
        assert float(np.prod(np.diag(mc))) == 1.0

    unit = random_unit(8, 3, rng)
    x = rng.normal(size=(2, 8, 8, 8))
    _, unit_logdet = unit_forward(x, unit)
    assert unit_logdet == 0.0
    assert np.array_equal(Squeeze.inverse(Squeeze.forward(x)), x)  # volume-exact

    for h, w, c, k in [(8, 8, 2, 3), (16, 16, 4, 2), (32, 32, 2, 5), (12, 20, 1, 3)]:
        pcb = random_masked_kernel(c, k, Orientation.TL, rng)
        y = rng.normal(size=(1, c, h, w))
        st = InvertStats()
        pcb_invert_wavefront(y, pcb, stats=st)
        assert st.phases == h + w - 1
        assert st.max_element_madds <= k * k * c
    report("structural claims (triangular/unit-diag/det=1/logdet=0/phases/madds)")


def test_worker_count_determinism():
    """FlowModel.inverse and sample bit-identical across workers in
    {1,2,4,8}, on batches that run in 2, 3 and 9 chunks (9 chunks run on
    as many lanes as workers), f32 and f64."""
    for dtype in ("f32", "f64"):
        cfg = ModelConfig(4, 8, 8, levels=2, steps=1, hidden=8, dtype=dtype)
        rng = np.random.default_rng(11)
        model = FlowModel(cfg, rng, data_init=False)
        for _, p in model.named_params():  # off the identity initialisation
            p.value = p.value + 0.05 * rng.standard_normal(p.value.shape).astype(p.value.dtype)
        for p, orientation in model.unit_params():
            p.value = apply_anchor_mask(MaskedKernel(p.value, orientation)).weights
        for batch in (CHUNK_IMAGES + 1, 2 * CHUNK_IMAGES + 1, 8 * CHUNK_IMAGES + 1):
            rng = np.random.default_rng(batch)
            latents = [rng.standard_normal(s).astype(model.dtype)
                       for s in model.latent_shapes(batch)]
            base_inv = model.inverse(latents, workers=1)
            base_smp = model.sample(batch, 0.7, np.random.default_rng(12), workers=1)
            for workers in (2, 4, 8):
                inv = model.inverse(latents, workers=workers)
                smp = model.sample(batch, 0.7, np.random.default_rng(12), workers=workers)
                assert np.array_equal(base_inv, inv), (dtype, batch, workers)
                assert np.array_equal(base_smp, smp), (dtype, batch, workers)
    report("worker-count determinism (bit-identical, workers 1/2/4/8)")


def _perturbed_toy_model(seed, levels=1, steps=2, c=4, hw=4, hidden=8):
    from fincflow.invconv import MaskedKernel, apply_anchor_mask

    cfg = ModelConfig(c, hw, hw, levels, steps, kernel_size=3, hidden=hidden, dtype="f64")
    rng = np.random.default_rng(seed)
    model = FlowModel(cfg, rng, data_init=False)
    for _, p in model.named_params():
        p.value = p.value + 0.05 * rng.standard_normal(p.value.shape)
    for p, orientation in model.unit_params():
        p.value = apply_anchor_mask(MaskedKernel(p.value, orientation)).weights
    return model


def test_jacobian_check():
    """logdet_total of a toy model (L=1, K=2, input 1x4x4x4) matches
    log|det| of the finite-difference Jacobian within 1e-3; <= 30 s."""
    start = time.time()
    model = _perturbed_toy_model(seed=21)
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
        zp = np.concatenate([z.ravel() for z in model.forward(xp.reshape(x.shape))[0]])
        zm = np.concatenate([z.ravel() for z in model.forward(xm.reshape(x.shape))[0]])
        jac[:, i] = (zp - zm) / (2 * eps)
    _, fd_logdet = np.linalg.slogdet(jac)
    err = abs(logdet - fd_logdet)
    elapsed = time.time() - start
    assert err <= 1e-3, err
    assert elapsed <= 30.0, f"jacobian check took {elapsed:.1f}s"
    report(f"composite log-det vs numeric Jacobian (err {err:.2e}, {elapsed:.1f}s)")


def test_gradient_check():
    """Every parameter gradient vs central differences (f64, eps=1e-4),
    relative error <= 1e-3 on a seeded toy model."""
    model = _perturbed_toy_model(seed=23, steps=1, hidden=4)
    x = np.random.default_rng(24).normal(size=(2, 4, 4, 4))
    n = x.shape[0]

    def loss():
        _, logdet, logp = model.forward(x)
        return -(logp + logdet) / n

    model.zero_grad()
    loss()
    model.backward()
    eps = 1e-4
    worst = 0.0
    for name, p in model.named_params():
        analytic = p.grad.ravel().copy()
        flat = p.value.ravel()
        fd = np.zeros_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            fd[i] = (up - down) / (2 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        rel = float(np.max(np.abs(analytic - fd) / denom))
        worst = max(worst, rel)
        assert rel <= 1e-3, (name, rel)
    report(f"gradient check, all parameters (worst rel err {worst:.2e})")


def test_model_invertibility():
    """inverse(forward(x)) within 1e-3 (f32) / 1e-8 (f64) for L=2, K=4
    on 16x16x4 inputs."""
    errs = {}
    for dtype, limit in (("f32", 1e-3), ("f64", 1e-8)):
        cfg = ModelConfig(4, 16, 16, levels=2, steps=4, hidden=16, dtype=dtype)
        rng = np.random.default_rng(31)
        model = FlowModel(cfg, rng, data_init=False)
        x = rng.normal(size=(2, 4, 16, 16)).astype(cfg.numpy_dtype())
        latents, _, _ = model.forward(x)
        back = model.inverse(latents, workers=2)
        err = float(np.max(np.abs(back - x)))
        errs[dtype] = err
        assert err <= limit, (dtype, err)
    report(f"model invertibility L=2 K=4 (f32 {errs['f32']:.2e}, f64 {errs['f64']:.2e})")


def test_training_progress_and_mask_preservation():
    """200 steps on the synthetic 8x8x4 fixture cut BPD by >= 0.5; the
    anchor mask holds exactly after every step."""
    cfg = ModelConfig(4, 8, 8, levels=2, steps=2, hidden=8, dtype="f32")
    model = FlowModel(cfg, np.random.default_rng(14))
    ds = synthetic_blobs(count=512, channels=4, size=8, seed=10)
    tcfg = TrainConfig(batch_size=64, epochs=25, seed=11)
    opt = Adam(model.named_params(), tcfg.lr)
    rng = np.random.default_rng(tcfg.seed)
    k = cfg.kernel_size
    history = []
    step = 0
    for epoch in range(tcfg.epochs):
        opt.lr = tcfg.lr * tcfg.decay**epoch
        for batch in iter_batches(ds, tcfg.batch_size, rng):
            history.append(train_step(model, batch, tcfg, opt, rng))
            for p, orientation in model.unit_params():
                ah, aw = anchor_position(orientation, k)
                eye = np.eye(p.value.shape[0], dtype=p.value.dtype)
                assert np.array_equal(p.value[:, :, ah, aw], eye), f"step {step}"
            step += 1
            if step >= 200:
                break
        if step >= 200:
            break
    drop = history[0]["bpd"] - history[199]["bpd"]
    assert drop >= 0.5, f"BPD dropped only {drop:.3f}"
    report(
        f"training progress ({history[0]['bpd']:.3f} -> {history[199]['bpd']:.3f} bpd, "
        f"anchor mask exact for 200 steps)"
    )


def test_scaling_evidence():
    """The sequential raster time grows >= 3.5x per size doubling while
    the wavefront, one vectorised solve per anti-diagonal, grows <= 3.5x
    (each ratio the median over 10 rounds, n in {32->64, 64->128}).
    Single-threaded, so it runs on any core count."""
    out = measure_scaling(sizes=(32, 64, 128), c=4, k=3, runs=10, seed=0)
    for pair, ratio in out["ratios"]["reference"].items():
        assert ratio >= 3.5, ("reference", pair, ratio)
    for pair, ratio in out["ratios"]["wavefront"].items():
        assert ratio <= 3.5, ("wavefront", pair, ratio)
    report(f"scaling evidence (reference {out['ratios']['reference']}, "
           f"wavefront {out['ratios']['wavefront']})")


def test_bench_methodology():
    """11 runs with the first discarded; mean/std/95% CI reproduce a
    recomputation from the raw per-run column to 1e-12."""
    rep = bench_invert(16, 4, 3, 1, "wavefront", seed=3)
    assert len(rep.runs_s) == 11
    kept = np.asarray(rep.runs_s[1:])
    assert kept.shape == (10,)
    assert abs(rep.mean_s - float(np.mean(kept))) <= 1e-12
    assert abs(rep.std_s - float(np.std(kept, ddof=1))) <= 1e-12
    from scipy.stats import t

    ci = float(t.ppf(0.975, 9)) * float(np.std(kept, ddof=1)) / math.sqrt(10)
    assert abs(rep.ci95_s - ci) <= 1e-12
    # the discarded first run is still recorded, and stats ignore it
    inflated = BenchReport(16, 4, 3, 1, "wavefront", runs_s=[999.0] + list(kept))
    assert abs(inflated.mean_s - rep.mean_s) <= 1e-12
    report("bench methodology (11 runs, first discarded, t-based 95% CI)")
