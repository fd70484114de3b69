"""The benchmark's three closed-loop workloads.

All three run a synthetic-blob flow model with C=4, L=2, K=2, k=3,
hidden=64 in f32.  After the data-dependent ActNorm init every parameter
gets a small perturbation drawn from the seed and the anchor mask is
re-applied, so the coupling and prior nets are not identity maps and the
output checks exercise every layer.

* ``train``: one ``train_step`` on 32 images of 32x32.  The coupling-net
  convolutions forward and backward dominate; the wavefront inverse and
  the worker pool never run, so this is the workload on which inverse-side
  changes must not move.
* ``sample``: one ``FlowModel.sample`` of 64 images of 32x32 at
  temperature 0.7 with 2 workers.  Convolutions run forward only and the
  unit inverse takes about a third; at batch 64 the diagonals are long
  enough for the worker pool to split them.
* ``reconstruct``: ``FlowModel.forward`` then ``FlowModel.inverse`` of one
  64x64 image with 1 worker, input dequantized at bin centres as the
  ``reconstruct`` command does.  Single-image latency, dominated by the
  H+W-1 phases of the unit inverse; no diagonal is long enough to use
  the pool.

Each workload has ``setup`` (everything before the timed loop except the
warm-up operation), ``prepare`` (builds operation i's input, untimed),
``op`` (the timed call into fincflow) and ``check`` (untimed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# f32 limit of the acceptance suite's model invertibility test.
ROUND_TRIP_TOL = 1e-3
# Parameter perturbation scale; keeps the f32 round trip far inside the
# tolerance at 64x64 while making every net non-identity.
PERTURB = 0.01
# Images of the sample batch whose round trip is checked.
CHECKED_SAMPLES = 8
TEMPERATURE = 0.7


@dataclass
class State:
    fc: object  # namespace holding the fincflow modules flow, invconv, train
    model: object
    pool: np.ndarray  # uint8 (M, C, H, W) inputs drawn from the seed
    seed: int
    opt: object = None
    tcfg: object = None
    rng: np.random.Generator | None = None


def stream(seed: int, *keys: int) -> np.random.Generator:
    """Independent random stream for one purpose, reproducible from the seed."""
    return np.random.default_rng([seed, *keys])


class Workload:
    name = ""
    size = 0
    images_per_op = 0
    pool_size = 0
    init_images = 32
    # Batch of the worker-count determinism check: long enough that the
    # longest level-0 diagonal times the batch reaches 512 elements, so a
    # 2-worker pool really splits it.
    det_batch = 0
    from_checkpoint = True

    def config(self, fc):
        return fc.flow.ModelConfig(4, self.size, self.size, levels=2, steps=2,
                                   kernel_size=3, hidden=64, dtype="f32")

    def unit_shapes(self) -> list[tuple[int, int]]:
        """(channels, side) of the unit input at each level: squeeze
        quadruples the channels and halves the side, split halves the
        channels again before the next level."""
        return [(16, self.size // 2), (32, self.size // 4)]

    def level_of_height(self) -> dict[int, str]:
        return {side: f"L{lvl}" for lvl, (_, side) in enumerate(self.unit_shapes())}

    def build_model(self, fc, pool, seed):
        rng = stream(seed, 0)
        model = fc.flow.FlowModel(self.config(fc), rng)
        model.forward(fc.train.dequantize(pool[: self.init_images], rng, model.dtype))
        for _, p in model.named_params():
            noise = PERTURB * rng.standard_normal(p.value.shape)
            p.value = (p.value + noise).astype(p.value.dtype)
        for p, orientation in model.unit_params():
            p.value = fc.invconv.apply_anchor_mask(
                fc.invconv.MaskedKernel(p.value, orientation)).weights
        return model

    def setup(self, fc, seed: int, workdir: str) -> State:
        pool = fc.train.synthetic_blobs(self.pool_size, 4, self.size, seed).images
        model = self.build_model(fc, pool, seed)
        state = State(fc, model, pool, seed)
        if self.from_checkpoint:
            path = f"{workdir}/model.ckpt"
            fc.train.checkpoint_save(model, path)
            state.model = fc.train.checkpoint_load(path)
        return state

    def with_model(self, state: State, model) -> State:
        """A copy of the state that runs operations on another model."""
        return replace(state, model=model)


class Train(Workload):
    name = "train"
    size = 32
    images_per_op = 32
    pool_size = 256
    det_batch = 32
    from_checkpoint = False

    def setup(self, fc, seed, workdir):
        state = super().setup(fc, seed, workdir)
        self._optimizer(state)
        state.tcfg = fc.train.TrainConfig(batch_size=self.images_per_op, seed=seed)
        state.rng = stream(seed, 2)
        return state

    @staticmethod
    def _optimizer(state):
        state.opt = state.fc.train.Adam(state.model.named_params(), lr=1e-3)

    def with_model(self, state, model):
        other = replace(state, model=model)
        self._optimizer(other)
        return other

    def prepare(self, state, i):
        idx = stream(state.seed, 1, i).choice(len(state.pool), self.images_per_op, replace=False)
        return state.pool[idx]

    def op(self, state, batch):
        return state.fc.train.train_step(state.model, batch, state.tcfg, state.opt, state.rng)

    def check(self, state, batch, out) -> bool:
        return bool(np.isfinite(out["nll"]))


class Sample(Workload):
    name = "sample"
    size = 32
    images_per_op = 64
    pool_size = 32
    det_batch = 64
    workers = 2

    def prepare(self, state, i):
        return stream(state.seed, 1, i)

    def op(self, state, rng):
        return state.model.sample(self.images_per_op, TEMPERATURE, rng, workers=self.workers)

    def check(self, state, rng, x) -> bool:
        if not np.all(np.isfinite(x)):
            return False
        head = x[:CHECKED_SAMPLES]
        latents, _, _ = state.model.forward(head)
        return bool(np.max(np.abs(state.model.inverse(latents) - head)) <= ROUND_TRIP_TOL)


class Reconstruct(Workload):
    name = "reconstruct"
    size = 64
    images_per_op = 1
    pool_size = 64
    init_images = 8
    det_batch = 16

    def prepare(self, state, i):
        img = state.pool[stream(state.seed, 1, i).integers(len(state.pool))]
        return ((img.astype(np.float64) + 0.5) / 256.0).astype(state.model.dtype)[None]

    def op(self, state, x):
        latents, _, _ = state.model.forward(x)
        return state.model.inverse(latents, workers=1)

    def check(self, state, x, xr) -> bool:
        if not np.all(np.isfinite(xr)):
            return False
        return bool(np.max(np.abs(xr - x)) <= ROUND_TRIP_TOL)


WORKLOADS = {wl.name: wl for wl in (Train(), Sample(), Reconstruct())}
