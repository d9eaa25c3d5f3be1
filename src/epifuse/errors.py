"""Exception types shared across the toolkit.

Everything numeric or domain-level derives from EpifuseError so callers can
catch one base class; ConfigError and its siblings mark bad inputs rather
than bad math (the CLI maps the two groups to different exit codes).
"""


class EpifuseError(Exception):
    """Base class for all toolkit errors."""


# -- geometry ---------------------------------------------------------------

class RankDeficient(EpifuseError):
    """Projection matrix does not have full row rank."""


class CoincidentCenters(EpifuseError):
    """Two views share a camera center; epipolar geometry is undefined."""


class DegenerateLine(EpifuseError):
    """Line has no direction in the image plane (|(a, b)| ~ 0)."""


class SingularAffine(EpifuseError):
    """Affine image transform is not invertible."""


class AtInfinity(EpifuseError):
    """Projection is undefined: the point lies on the principal plane."""


# -- fusion -----------------------------------------------------------------

class ShapeMismatch(EpifuseError):
    """Operands disagree in shape."""


class OddChannels(EpifuseError):
    """Bottleneck fusion needs an even channel count."""


class ChannelMismatch(EpifuseError):
    """Reference and source maps carry different channel counts."""


class StateMissing(EpifuseError):
    """Backward pass requested without a recorded forward state."""


# -- triangulation ----------------------------------------------------------

class Degenerate(EpifuseError):
    """Triangulation system has no unique solution."""


class NoConsensus(EpifuseError):
    """RANSAC found no consensus set of at least two observations."""


# -- metrics ----------------------------------------------------------------

class LengthMismatch(EpifuseError):
    """Per-joint sequences disagree in length."""


# -- synthetic harness ------------------------------------------------------

class InvalidAngle(EpifuseError):
    """Requested rig separation angle is outside (0, 180) degrees."""


class DescriptorSaturation(EpifuseError):
    """Could not draw enough well-separated descriptors."""


# -- configuration / CLI ----------------------------------------------------

class ConfigError(EpifuseError):
    """Malformed or inconsistent configuration input."""


class DimsTooLarge(EpifuseError):
    """Requested problem size exceeds the supported bound."""


class IndexOutOfRange(EpifuseError):
    """View or joint index outside the configured scenario."""
