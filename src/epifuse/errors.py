"""Exception types shared across the toolkit.

Everything numeric or domain-level derives from EpifuseError so callers can
catch one base class. The type is the exit code: ConfigError and its
subclasses mark bad input and exit 2; every other EpifuseError, and a
ValueError (the library's bad-argument type), is a numeric or domain
failure and exits 3.
"""


class EpifuseError(Exception):
    """Base class for all toolkit errors."""


# -- geometry ---------------------------------------------------------------

class CoincidentCenters(EpifuseError):
    """Two views share a camera center; epipolar geometry is undefined."""


class DegenerateLine(EpifuseError):
    """Line has no direction in the image plane (|(a, b)| ~ 0)."""


# -- fusion -----------------------------------------------------------------

class ShapeMismatch(EpifuseError):
    """Operands disagree in shape or channel count."""


# -- triangulation ----------------------------------------------------------

class Degenerate(EpifuseError):
    """Triangulation system has no unique solution."""


class NoConsensus(EpifuseError):
    """RANSAC found no consensus set of at least two observations."""


# -- synthetic harness ------------------------------------------------------

class DescriptorSaturation(EpifuseError):
    """Could not draw enough well-separated descriptors."""


# -- bad input: exit 2 ------------------------------------------------------

class ConfigError(EpifuseError):
    """Malformed or inconsistent configuration input."""


class DimsTooLarge(ConfigError):
    """Requested problem size exceeds the supported bound."""


class IndexOutOfRange(ConfigError):
    """View or joint index outside the configured scenario."""


class LengthMismatch(ConfigError):
    """Per-joint sequences disagree in length."""


class InvalidAngle(ConfigError):
    """Requested rig separation angle is outside (0, 180) degrees."""
