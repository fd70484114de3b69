"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of ``fincflow``
with timing wrappers at run time and ``Tracer.uninstall`` puts the
originals back; nothing under ``src/`` knows about it.  Each wrapped call
is a span.  Spans nest on a stack, so a boundary's *self* time is its
duration minus the time of the wrapped calls it made.  Spans are folded
into per-boundary sums as they close: calls, self seconds, and any counts
the boundary's counter derives from the call's argument shapes.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# Boundaries whose self time is glue code between layers, not a layer.
GLUE = ("flow.FlowModel.forward", "flow.FlowModel.inverse", "flow.FlowModel.sample",
        "flow.FlowModel.backward", "train.train_step")


def side_sum(length: int, k: int) -> int:
    """sum over i < length of min(i + 1, k): taps in bounds along one axis."""
    if length <= k:
        return length * (length + 1) // 2
    return k * (k + 1) // 2 + (length - k) * k


def unit_invert_madds(n: int, channels: int, h: int, w: int, k: int) -> int:
    """Multiply-adds of one unit inverse, in closed form.

    Each of the 4 blocks has C = channels/4 channels.  An output pixel
    (i, j) has min(i+1,k)*min(j+1,k) - 1 in-bounds non-anchor taps, each
    worth C*C multiply-adds per image (C outputs times C inputs).
    """
    c = channels // 4
    taps = side_sum(h, k) * side_sum(w, k) - h * w
    return 4 * n * c * c * taps


def conv2d_madds(x_shape, w_shape) -> int:
    """Multiply-adds of one same-padded Conv2d forward (bias excluded)."""
    n, _, h, w = x_shape
    c_out, c_in, kh, kw = w_shape
    return n * h * w * c_out * c_in * kh * kw


class Tracer:
    """Span stack plus per-boundary sums; records only while ``recording``."""

    def __init__(self):
        self.recording = False
        self.sums: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, dict[str, float]]:
        """Return the sums gathered so far and start new ones."""
        sums, self.sums = self.sums, defaultdict(lambda: defaultdict(float))
        return sums

    def _wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]  # start, time of wrapped children
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                counts = counter(*args, **kwargs) if counter else {}
                names = [name]
                if "level" in counts:
                    names.append(f"{name}.{counts.pop('level')}")
                for key in names:
                    sums = tracer.sums[key]
                    sums["calls"] += 1
                    sums["self_s"] += duration - frame[1]
                    for count, value in counts.items():
                        sums[count] += value

        return wrapper

    def _patch(self, owner, attr, name, counter=None):
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self._wrap(name, original.__func__, counter))
        else:
            replacement = self._wrap(name, original, counter)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, fc, level_of_height: dict[int, str]):
        """Wrap every traced boundary of the fincflow modules in ``fc``.

        Module-level functions are patched in the namespace of the module
        that calls them, since ``from x import f`` binds a second name.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        flow, invconv, train = fc.flow, fc.invconv, fc.train

        def invert_counts(y, unit, *args, **kwargs):
            n, c, h, w = y.shape
            return {
                "phases": h + w - 1,
                "madds": unit_invert_madds(n, c, h, w, unit.k),
                "level": level_of_height[h],
            }

        for fn_name in ("unit_forward", "unit_backward", "unit_invert"):
            counter = invert_counts if fn_name == "unit_invert" else None
            for module in (invconv, flow):
                self._patch(module, fn_name, f"invconv.{fn_name}", counter)
        for fn_name in ("flip", "pad_oriented", "channel_split", "channel_concat"):
            self._patch(invconv, fn_name, "tensor")

        self._patch(flow.Conv2d, "forward", "flow.Conv2d.forward",
                    lambda conv, x: {"madds": conv2d_madds(x.shape, conv.w.value.shape)})
        # weight gradient plus input gradient: two forward-sized contractions
        self._patch(flow.Conv2d, "backward", "flow.Conv2d.backward",
                    lambda conv, gy, x: {"madds": 2 * conv2d_madds(x.shape, conv.w.value.shape)})
        for cls, methods in (
            (flow.Coupling, ("forward", "inverse", "backward")),
            (flow.ActNorm, ("forward", "inverse", "backward")),
            (flow.Inv1x1, ("forward", "inverse", "backward")),
            (flow.Split, ("forward", "sample_z", "backward")),
            (flow.FlowModel, ("forward", "inverse", "sample", "backward")),
        ):
            for method in methods:
                self._patch(cls, method, f"flow.{cls.__name__}.{method}")
        # Squeeze.backward is Squeeze.inverse, so it is counted there.
        for method in ("forward", "inverse"):
            self._patch(flow.Squeeze, method, "flow.Squeeze")

        self._patch(train, "train_step", "train.train_step")
        self._patch(train.Adam, "step", "train.Adam.step")
        for fn_name in ("apply_anchor_mask", "mask_anchor_gradient"):
            self._patch(train, fn_name, "train.anchor_mask")
        self._patch(train, "dequantize", "train.dequantize")
        self._patch(train, "checkpoint_load", "train.checkpoint_load")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.recording = False
