"""Invertible k x k convolutions with wavefront-parallel inversion, plus a
multi-scale normalizing flow built on them."""

from .tensor import Orientation, channel_concat, channel_split, flip, pad_oriented
from .invconv import (
    FincFlowUnit,
    InvertStats,
    MaskedKernel,
    apply_anchor_mask,
    pcb_forward,
    pcb_invert_reference,
    pcb_invert_wavefront,
    unit_forward,
    unit_invert,
)

__all__ = [
    "Orientation",
    "channel_concat",
    "channel_split",
    "flip",
    "pad_oriented",
    "FincFlowUnit",
    "InvertStats",
    "MaskedKernel",
    "apply_anchor_mask",
    "pcb_forward",
    "pcb_invert_reference",
    "pcb_invert_wavefront",
    "unit_forward",
    "unit_invert",
]

__version__ = "0.1.0"
