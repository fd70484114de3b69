"""Exception types raised by the library's contract checks."""


class FincError(Exception):
    """Base class for all fincflow errors."""


class ShapeMismatch(FincError):
    """Operand shapes or dtypes are incompatible."""


class IndivisibleChannels(FincError):
    """Channel count is not divisible by the requested number of parts."""


class BadFormat(FincError):
    """Image, dataset, tensor or checkpoint file is malformed."""


class BadMagic(BadFormat):
    """Tensor or checkpoint file does not start with the expected magic."""


class TruncatedFile(BadFormat):
    """Tensor record ends before its header or declared payload does."""


class UnsupportedDtype(BadFormat):
    """Tensor record declares a dtype code this library does not know."""


class TooLargeForDense(FincError):
    """Problem exceeds the dense convolution-matrix size cap."""


class ModelTooLarge(FincError):
    """Model parameters cannot be allocated in memory."""


class ZeroScale(FincError):
    """Actnorm scale has a zero entry and cannot be inverted."""


class SingularWeight(FincError):
    """1x1 convolution weight matrix is numerically singular."""


class OddChannels(FincError):
    """Layer requires an even channel count."""


class OddSpatialDims(FincError):
    """Layer requires even spatial dimensions."""


class MissingCache(FincError):
    """Backward pass invoked without a matching forward cache."""


class NonFiniteLoss(FincError):
    """Loss evaluated to NaN or infinity."""


class DimsMismatch(FincError):
    """Data dimensions do not match the model configuration."""
