"""Exception types shared across the package."""


class MagweylError(Exception):
    """Base class for all package errors."""


class ShapeError(MagweylError):
    """An array argument has the wrong shape or non-finite entries."""


class JacobiViolation(MagweylError):
    """Structure constants fail the Jacobi identity."""


class NotNilpotent(MagweylError):
    """The lower central series stabilizes at a nonzero subspace."""


class ClassTooLarge(MagweylError):
    """Nilpotency class exceeds the supported bound."""


class BadGridSpec(MagweylError):
    """Grid parameters violate the even-N / positivity contract."""


class DegreeTooHigh(MagweylError):
    """Polynomial coefficient table exceeds the supported total degree."""


class FieldsDiffer(MagweylError):
    """Two potentials do not generate the same magnetic field."""


class WrongClass(MagweylError):
    """Operation requires an algebra of different nilpotency class."""


class NotShiftable(MagweylError):
    """The class <= 1 inverse met a derived axis whose bracket reads a derived axis."""


class ConfigError(MagweylError):
    """Run configuration is missing, malformed, or inconsistent."""
